// Structured event journal: bounded ring semantics (wrap, drop accounting,
// monotone seq), JSONL flush format, and the runtime hooks that feed it
// (checkpoint commits, stream-table builds, resilience retries). Lives in
// the telemetry suite because it churns the process-wide Journal singleton.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/resilience.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/telemetry.hpp"

namespace geo {
namespace {

using telemetry::Journal;
using telemetry::JournalEntry;
using telemetry::Json;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Fresh journal writing to `name`; capacity must be explicit because the
// singleton keeps its last capacity across enable/disable cycles.
std::string arm_journal(const char* name, std::size_t capacity) {
  const std::string path = temp_path(name);
  std::filesystem::remove(path);
  auto& journal = Journal::instance();
  journal.disable();
  journal.enable(path, capacity);
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

bool has_kind(const std::vector<JournalEntry>& entries,
              const std::string& kind) {
  for (const JournalEntry& e : entries)
    if (e.kind == kind) return true;
  return false;
}

TEST(Journal, RingWrapsKeepingNewestAndCountingDrops) {
  auto& journal = Journal::instance();
  const std::string path = arm_journal("geo_journal_wrap.jsonl", 16);

  for (int i = 0; i < 40; ++i)
    journal.record("test.tick", "t" + std::to_string(i),
                   {{"i", static_cast<double>(i)}});

  EXPECT_EQ(journal.event_count(), 16u);
  EXPECT_EQ(journal.dropped(), 24u);

  const std::vector<JournalEntry> kept = journal.snapshot();
  ASSERT_EQ(kept.size(), 16u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].seq, 24u + i) << "oldest retained entry is seq 24";
    EXPECT_EQ(kept[i].label, "t" + std::to_string(24 + i));
  }

  journal.disable();
  std::filesystem::remove(path);
}

TEST(Journal, FlushEmitsJsonlAndSeqStaysMonotoneAcrossFlushes) {
  auto& journal = Journal::instance();
  const std::string path = arm_journal("geo_journal_flush.jsonl", 64);

  journal.record("test.alpha", "one", {{"x", 1.0}, {"y", 2.5}}, "note-a");
  journal.record("test.alpha", "two");
  ASSERT_TRUE(journal.flush());
  EXPECT_EQ(journal.event_count(), 0u);
  journal.record("test.beta", "three", {}, "note-b");
  ASSERT_TRUE(journal.flush());

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto parsed = Json::parse(lines[i]);
    ASSERT_TRUE(parsed.has_value()) << lines[i];
    EXPECT_EQ(parsed->find("seq")->integer(), static_cast<std::int64_t>(i))
        << "seq keeps counting across flushes";
    EXPECT_GE(parsed->find("ts_us")->number(), 0.0);
    EXPECT_GE(parsed->find("tid")->integer(), 1);
    ASSERT_NE(parsed->find("kind"), nullptr);
    ASSERT_NE(parsed->find("label"), nullptr);
  }
  auto first = Json::parse(lines[0]);
  EXPECT_EQ(first->find("kind")->str(), "test.alpha");
  EXPECT_EQ(first->find("note")->str(), "note-a");
  const Json* args = first->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->find("x")->number(), 1.0);
  EXPECT_DOUBLE_EQ(args->find("y")->number(), 2.5);
  auto second = Json::parse(lines[1]);
  EXPECT_EQ(second->find("note"), nullptr) << "empty note is omitted";
  EXPECT_EQ(second->find("args"), nullptr) << "empty args is omitted";

  journal.disable();
  std::filesystem::remove(path);
}

TEST(Journal, DisabledPathRecordsNothing) {
  auto& journal = Journal::instance();
  journal.disable();
  ASSERT_FALSE(journal.enabled());
  journal.record("test.ghost", "never");
  EXPECT_EQ(journal.event_count(), 0u);
  EXPECT_TRUE(journal.flush()) << "flush while disabled is a no-op success";
}

TEST(Journal, CheckpointCommitIsJournaled) {
  auto& journal = Journal::instance();
  const std::string jpath = arm_journal("geo_journal_ckpt.jsonl", 64);
  const std::string ckpt = temp_path("geo_journal_ckpt.bin");

  const std::string payload = "journal-hook-payload";
  ASSERT_TRUE(resilience::write_checkpoint(ckpt, payload).ok());

  const std::vector<JournalEntry> entries = journal.snapshot();
  ASSERT_TRUE(has_kind(entries, "checkpoint.commit"));
  for (const JournalEntry& e : entries) {
    if (e.kind != "checkpoint.commit") continue;
    EXPECT_EQ(e.label, ckpt);
    auto args = Json::parse(e.args_json);
    ASSERT_TRUE(args.has_value());
    // The journaled size is the full image: header (24 bytes) + payload.
    EXPECT_GE(args->find("bytes")->number(),
              static_cast<double>(payload.size()));
  }

  journal.disable();
  std::filesystem::remove(jpath);
  std::filesystem::remove(ckpt);
}

TEST(Journal, StreamTableBuildIsJournaled) {
  auto& journal = Journal::instance();
  const std::string jpath = arm_journal("geo_journal_table.jsonl", 64);

  // A seed no other test uses, so this acquire is a first build (a cache
  // hit records nothing).
  sc::SeedSpec spec;
  spec.bits = 8;
  spec.seed = 0xBEEF;
  auto* table =
      sc::StreamTableRegistry::instance().acquire(sc::RngKind::kLfsr, spec, 64);
  ASSERT_NE(table, nullptr);

  const std::vector<JournalEntry> entries = journal.snapshot();
  ASSERT_TRUE(has_kind(entries, "stream_table.build"));
  for (const JournalEntry& e : entries) {
    if (e.kind != "stream_table.build") continue;
    EXPECT_NE(e.label.find("/b8/L64"), std::string::npos) << e.label;
    auto args = Json::parse(e.args_json);
    ASSERT_TRUE(args.has_value());
    EXPECT_DOUBLE_EQ(args->find("bytes")->number(),
                     static_cast<double>(table->bytes()));
    EXPECT_GE(args->find("build_ns")->number(), 0.0);
  }

  journal.disable();
  std::filesystem::remove(jpath);
}

TEST(Journal, ResilienceRetriesAndAcceptanceAreJournaled) {
  auto& journal = Journal::instance();
  const std::string jpath = arm_journal("geo_journal_retry.jsonl", 256);

  // Transient-recovery recipe from the resilience suite: rare re-rolled
  // faults force at least one retry that then recovers at the native rung.
  arch::ConvShape shape = arch::ConvShape::conv("t", 4, 6, 5, 3, 1, false);
  std::mt19937 rng(77);
  std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  std::vector<float> weights(static_cast<std::size_t>(shape.weights()));
  for (auto& w : weights) w = wdist(rng);
  std::vector<float> input(static_cast<std::size_t>(shape.activations()));
  for (auto& a : input) a = adist(rng);
  const std::vector<float> ones(static_cast<std::size_t>(shape.cout), 1.0f);
  const std::vector<float> zeros(static_cast<std::size_t>(shape.cout), 0.0f);

  arch::HwConfig hw = arch::HwConfig::ulp();
  hw.accum = nn::AccumMode::kPbw;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;

  fault::FaultConfig cfg;
  cfg.sram_error_rate = 2e-4;
  cfg.sram_burst = 2;
  cfg.ecc = fault::EccMode::kSecded;
  cfg.transient = true;
  cfg.rng_seed = 1;
  fault::ScopedFaultInjection inject(cfg);

  resilience::RetryPolicy policy;
  policy.retries = 8;
  resilience::ResilientExecutor exec(hw, policy);
  auto r = exec.run_conv(shape, weights, input, ones, zeros, 9, "transient");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_GE(exec.report().layers[0].tiles_retried, 1);

  const std::vector<JournalEntry> entries = journal.snapshot();
  EXPECT_TRUE(has_kind(entries, "resilience.retry"));
  EXPECT_TRUE(has_kind(entries, "resilience.accept"));
  for (const JournalEntry& e : entries) {
    if (e.kind != "resilience.retry") continue;
    EXPECT_EQ(e.label, "transient");
    auto args = Json::parse(e.args_json);
    ASSERT_TRUE(args.has_value());
    EXPECT_GE(args->find("tile")->number(), 0.0);
    EXPECT_GE(args->find("attempt")->number(), 0.0);
    EXPECT_GE(args->find("detections")->number(), 1.0);
  }

  journal.disable();
  std::filesystem::remove(jpath);
}

// A process dying on a fatal signal must not take the retained journal
// window with it: enable() installs handlers that best-effort flush with
// raw write(2) before re-raising the default disposition.
TEST(Journal, FatalSignalFlushPersistsRetainedWindow) {
  const std::string path = temp_path("geo_journal_signal.jsonl");
  std::filesystem::remove(path);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: record without flushing, then die by SIGTERM. The fatal-signal
    // handler is the only thing standing between these entries and the
    // ring's oblivion.
    auto& journal = Journal::instance();
    journal.disable();
    journal.enable(path, 64);
    journal.record("test.signal", "window", {{"i", 1.0}}, "pre-crash");
    journal.record("test.signal", "window", {{"i", 2.0}});
    std::raise(SIGTERM);
    _exit(97);  // unreachable: the handler re-raises with SIG_DFL
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child must die by signal, not exit";
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u) << "both retained entries must be persisted";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto parsed = Json::parse(lines[i]);
    ASSERT_TRUE(parsed.has_value()) << lines[i];
    EXPECT_EQ(parsed->find("seq")->integer(), static_cast<std::int64_t>(i));
    EXPECT_EQ(parsed->find("kind")->str(), "test.signal");
    EXPECT_EQ(parsed->find("label")->str(), "window");
    const Json* args = parsed->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->find("i")->number(), static_cast<double>(i + 1));
  }
  auto first = Json::parse(lines[0]);
  EXPECT_EQ(first->find("note")->str(), "pre-crash");

  std::filesystem::remove(path);
}

// GEO_JOURNAL_CAP is read while the singleton is constructed, so the check
// runs in a fresh process (a threadsafe death test re-executes the binary).
// A rejected value keeps the default capacity and is journaled by the
// journal being built, without re-entering Journal::instance().
TEST(JournalDeathTest, InvalidCapacityKnobIsJournaled) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"lots", "8", "99999999", "64k"}) {
    const std::string path = temp_path("geo_journal_cap.jsonl");
    EXPECT_EXIT(
        {
          ::setenv("GEO_JOURNAL", path.c_str(), 1);
          ::setenv("GEO_JOURNAL_CAP", bad, 1);
          auto& journal = Journal::instance();
          const std::vector<JournalEntry> entries = journal.snapshot();
          const bool ok = entries.size() == 1 &&
                          entries[0].kind == "config.invalid" &&
                          entries[0].label == "GEO_JOURNAL_CAP";
          // Fill past the default capacity: exactly 4096 entries stay.
          for (int i = 0; i < 5000; ++i) journal.record("test.fill", "cap");
          const bool capped = journal.event_count() == 4096;
          journal.disable();
          std::_Exit(ok && capped ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "GEO_JOURNAL_CAP")
        << "GEO_JOURNAL_CAP=" << bad;
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace geo
