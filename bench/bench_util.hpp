// Shared helpers for the bench harnesses: environment-sized workloads, a
// trained-model cache so re-running benches is cheap, and the machine-
// readable BENCH_<name>.json emitter every harness writes alongside its
// ASCII tables.
//
// Environment knobs (see docs/OBSERVABILITY.md):
//   GEO_BENCH_TRAIN     training-set size          (default 320)
//   GEO_BENCH_TEST      test-set size              (default 128)
//   GEO_BENCH_EPOCHS    training epochs            (default 12)
//   GEO_BENCH_FULL      =1 adds the slow sweeps (VGG accuracy rows, ...)
//   GEO_CACHE_DIR       trained-weight cache dir   (default .geo_cache)
//   GEO_BENCH_JSON_DIR  where BENCH_*.json lands   (default .)
//   GEO_BENCH_JSON      =0 disables the JSON artifacts
//   GEO_SEED            master seed; reseeds bench model init coherently
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/attribution.hpp"
#include "arch/report.hpp"
#include "core/env.hpp"
#include "exec/thread_pool.hpp"
#include "nn/dataset.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "resilience/checkpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::bench {

// Checked parse (core::env_int): a malformed value is rejected once
// (stderr + `config.invalid` journal entry) and falls back, instead of
// atoi's silent garbage -> 0.
inline int env_int(const char* name, int fallback) {
  return static_cast<int>(core::env_int(name, fallback, INT_MIN, INT_MAX));
}

// Runs `n` independent sweep points across the process thread pool and
// returns fn(i)'s results in point order. Assembly stays on the caller, so
// the emitted tables are byte-identical at every GEO_THREADS as long as each
// point is self-contained: its own ScopedFaultInjection, no shared mutable
// state outside thread-safe facilities (SweepCheckpoint, the metrics
// registry). With GEO_THREADS=1 the points run serially inline, in order.
template <typename Result, typename Fn>
std::vector<Result> sweep_points(std::int64_t n, Fn&& fn) {
  std::vector<Result> out(static_cast<std::size_t>(n));
  exec::parallel_for(n, 1, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = fn(i);
  });
  return out;
}

inline bool full_mode() { return env_int("GEO_BENCH_FULL", 0) != 0; }

struct BenchSizes {
  int train = env_int("GEO_BENCH_TRAIN", 320);
  int test = env_int("GEO_BENCH_TEST", 128);
  int epochs = env_int("GEO_BENCH_EPOCHS", 12);
};

inline std::string cache_dir() {
  const char* v = std::getenv("GEO_CACHE_DIR");
  const std::string dir = v != nullptr ? v : ".geo_cache";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

// Trains (or loads from cache) `model_name` under `cfg` and returns test
// accuracy in percent.
inline double accuracy_percent(const std::string& model_name,
                               const nn::Dataset& train_set,
                               const nn::Dataset& test_set,
                               const nn::ScModelConfig& cfg,
                               const BenchSizes& sizes,
                               bool cache = true) {
  // GEO_SEED reseeds the model initializer; unset keeps the historical 42.
  const auto model_seed = static_cast<unsigned>(
      core::seed_or(42, "bench.model") & 0x7FFFFFFFu);
  nn::Sequential net =
      nn::make_model(model_name, train_set.channels(), 10, cfg, model_seed);
  nn::TrainOptions opts;
  opts.epochs = sizes.epochs;
  if (cfg.mode == nn::ScModelConfig::Mode::kStochastic) {
    // Stochastic forward passes train best with a gentler optimizer and a
    // tighter weight range (keeps OR unions out of deep saturation).
    opts.lr = 1e-3f;
    opts.clamp_limit = 0.5f;
    if (cfg.accum == nn::AccumMode::kOr) {
      // All-OR is the most nonlinear configuration and converges slowest;
      // the paper trains everything for 1000 epochs, so at this reduced
      // budget OR configurations get gentler steps and proportionally more
      // of them.
      opts.lr = 5e-4f;
      opts.clamp_limit = 0.3f;
      opts.epochs *= 3;
    }
  }
  opts.batch_size = 16;
  if (cache) {
    opts.cache_dir = cache_dir();
    opts.cache_key = model_name + "_" + train_set.name + "_" + cfg.key() +
                     "_n" + std::to_string(train_set.count()) + "_e" +
                     std::to_string(sizes.epochs);
    // A reseeded run must not collide with the default-seed cache entries.
    if (core::global_seed().has_value())
      opts.cache_key += "_gs" + std::to_string(*core::global_seed());
  }
  return nn::train(net, train_set, test_set, opts).test_accuracy * 100.0;
}

// Crash-safe sweep memo (docs/RESILIENCE.md): a bench sweep records each
// completed point's result string under a stable key; a re-run after a crash
// skips straight past the completed points. Backed by the versioned,
// CRC-guarded checkpoint format in GEO_CHECKPOINT_DIR — unset disables the
// memo entirely (every lookup misses, record() is a no-op). A corrupt or
// foreign snapshot is rejected fail-closed and the sweep restarts from
// scratch; it is never partially trusted.
class SweepCheckpoint {
 public:
  explicit SweepCheckpoint(const std::string& bench_name) {
    const std::string dir = resilience::checkpoint_dir();
    if (dir.empty()) return;
    path_ = dir + "/sweep_" + bench_name + ".ckpt";
    auto payload = resilience::read_checkpoint(path_);
    if (!payload.ok()) {
      if (payload.status().message().find("cannot open") ==
          std::string::npos)
        std::fprintf(stderr, "[bench] ignoring %s\n",
                     payload.status().message().c_str());
      return;
    }
    resilience::ByteReader r(*payload);
    const std::uint64_t n = r.u64();
    std::map<std::string, std::string> loaded;
    for (std::uint64_t i = 0; i < n && r.read_status().ok(); ++i) {
      std::string key = r.bytes();
      loaded[std::move(key)] = r.bytes();
    }
    if (!r.read_status().ok() || !r.exhausted()) {
      std::fprintf(stderr, "[bench] ignoring corrupt sweep memo %s\n",
                   path_.c_str());
      return;
    }
    done_ = std::move(loaded);
    resumed_ = done_.size();
  }

  bool enabled() const noexcept { return !path_.empty(); }
  std::size_t resumed() const noexcept { return resumed_; }

  // The result recorded for `point`, or nullopt if it has not completed.
  // Thread-safe: sweep points fanned out via sweep_points() may look up and
  // record concurrently.
  std::optional<std::string> lookup(const std::string& point) const {
    std::lock_guard lock(mu_);
    const auto it = done_.find(point);
    if (it == done_.end()) return std::nullopt;
    return it->second;
  }

  // Records `point` and atomically persists the whole memo, so a kill at
  // any instant leaves either the previous or the new snapshot on disk. The
  // memo map is sorted, so the final snapshot's bytes are independent of
  // the order concurrent points complete in.
  void record(const std::string& point, const std::string& value) {
    if (path_.empty()) return;
    std::lock_guard lock(mu_);
    done_[point] = value;
    resilience::ByteWriter w;
    w.u64(done_.size());
    for (const auto& [k, v] : done_) {
      w.bytes(k);
      w.bytes(v);
    }
    if (auto s = resilience::write_checkpoint(path_, w.data()); !s.ok())
      std::fprintf(stderr, "[bench] %s\n", s.message().c_str());
  }

 private:
  mutable std::mutex mu_;
  std::string path_;
  std::map<std::string, std::string> done_;
  std::size_t resumed_ = 0;
};

// Machine-readable companion to the ASCII output: each bench builds one
// BenchReport, mirrors its tables/scalars into it, and writes
// BENCH_<name>.json on exit so the perf trajectory can be tracked across
// runs without scraping stdout. Tables are embedded cell-for-cell (the same
// strings the ASCII table prints), plus a telemetry metrics snapshot.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), root_(telemetry::Json::object()) {
    root_.set("bench", name_);
    root_.set("schema", "geo-bench-v1");
  }

  telemetry::Json& root() { return root_; }

  BenchReport& set(const std::string& key, telemetry::Json value) {
    root_.set(key, std::move(value));
    return *this;
  }
  BenchReport& set(const std::string& key, double value) {
    return set(key, telemetry::Json(value));
  }
  BenchReport& set(const std::string& key, const std::string& value) {
    return set(key, telemetry::Json(value));
  }

  // Embeds `table` as {"header": [...], "rows": [[...], ...]} under `key`,
  // cell-for-cell identical to what Table::render() prints.
  BenchReport& add_table(const std::string& key, const arch::Table& table) {
    telemetry::Json header = telemetry::Json::array();
    for (const auto& cell : table.header())
      header.push(telemetry::Json(cell));
    telemetry::Json rows = telemetry::Json::array();
    for (const auto& row : table.rows()) {
      telemetry::Json r = telemetry::Json::array();
      for (const auto& cell : row) r.push(telemetry::Json(cell));
      rows.push(std::move(r));
    }
    telemetry::Json t = telemetry::Json::object();
    t.set("header", std::move(header));
    t.set("rows", std::move(rows));
    root_.set(key, std::move(t));
    return *this;
  }

  std::string path() const {
    const char* dir = std::getenv("GEO_BENCH_JSON_DIR");
    const std::string d = (dir != nullptr && dir[0] != '\0') ? dir : ".";
    return d + "/BENCH_" + name_ + ".json";
  }

  // Validates a rendered report document: structurally parseable JSON that
  // carries the geo-bench-v1 schema marker. Split out so tests can feed it
  // arbitrary text.
  static bool validate(const std::string& text) {
    return telemetry::json_valid(text) &&
           text.find("\"schema\": \"geo-bench-v1\"") != std::string::npos;
  }

  // Attaches the metrics snapshot, validates the rendered document with the
  // telemetry JSON validator, and writes the artifact. A report that fails
  // validation is not written and fails the bench (callers exit nonzero on
  // false). Honors GEO_BENCH_JSON=0; disabled counts as success.
  bool write() {
    if (env_int("GEO_BENCH_JSON", 1) == 0) return true;
    const std::string file = path();
    {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(file).parent_path(), ec);
    }
    root_.set("metrics",
              telemetry::metrics_to_json(
                  telemetry::MetricsRegistry::instance()));
    // Per-layer generation/execution/stall/memory cycle split (empty
    // "layers" when the bench never ran the machine); keyed so bench_diff
    // gates the attribution buckets like any other scalar.
    root_.set("attr",
              arch::attribution_to_json(arch::AttributionLedger::instance()));
    if (!validate(root_.dump())) {
      std::fprintf(stderr, "[bench] %s failed JSON validation; not written\n",
                   file.c_str());
      return false;
    }
    const bool ok = root_.write_file(file);
    std::printf("\n[bench] %s %s\n", ok ? "wrote" : "FAILED to write",
                file.c_str());
    return ok;
  }

 private:
  std::string name_;
  telemetry::Json root_;
};

}  // namespace geo::bench
