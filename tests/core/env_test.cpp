#include "core/env.hpp"

#include "telemetry/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace geo::core {
namespace {

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0x8000000000000000ull), mix64(0));
  // splitmix64's finalizer maps 0 to 0; any nonzero input must leave it.
  EXPECT_NE(mix64(1), 0u);
}

TEST(GlobalSeed, IsStableWithinTheProcess) {
  // The value is parsed once; repeated calls must agree (the trainer, bench
  // harness, and fault model all rely on reading the same master seed).
  EXPECT_EQ(global_seed(), global_seed());
}

TEST(SeedOr, FollowsGlobalSeed) {
  const auto master = global_seed();
  if (!master.has_value()) {
    // GEO_SEED unset (the tier-1 configuration): every component keeps its
    // historical default, whatever the domain string.
    EXPECT_EQ(seed_or(42, "bench.model"), 42u);
    EXPECT_EQ(seed_or(7, "train.shuffle"), 7u);
    EXPECT_EQ(seed_or(0, "fault.model"), 0u);
  } else {
    // GEO_SEED set: the fallback is ignored and domains are decorrelated.
    EXPECT_EQ(seed_or(1, "a"), seed_or(99, "a"));
    EXPECT_NE(seed_or(1, "a"), seed_or(1, "b"));
  }
}

TEST(SeedOr, IsDeterministicPerDomain) {
  EXPECT_EQ(seed_or(5, "x"), seed_or(5, "x"));
}

TEST(ParseUint, StrictWholeString) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("12x").has_value());   // trailing junk
  EXPECT_FALSE(parse_uint(" 12").has_value());   // leading junk
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());  // overflow
}

TEST(ParseInt, StrictWholeString) {
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("two").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());  // overflow
}

// Regression: GEO_CRASH_AFTER_EPOCH (and every other numeric knob) used raw
// atoi, so "garbage" silently became 0 and out-of-range values were UB.
// env_int must treat both as unset, with the fallback applied.
TEST(EnvInt, FallsBackOnUnsetMalformedAndOutOfRange) {
  ::unsetenv("GEO_TEST_KNOB");
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);
  ::setenv("GEO_TEST_KNOB", "", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);  // empty counts as unset
  ::setenv("GEO_TEST_KNOB", "12", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 12);
  ::setenv("GEO_TEST_KNOB", "-3", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), -3);
  ::setenv("GEO_TEST_KNOB", "garbage", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);  // atoi would have said 0
  ::setenv("GEO_TEST_KNOB", "12junk", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);  // atoi would have said 12
  ::setenv("GEO_TEST_KNOB", "99", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7, 0, 64), 7);  // above hi
  ::setenv("GEO_TEST_KNOB", "-1", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7, 0, 64), 7);  // below lo
  ::setenv("GEO_TEST_KNOB", "64", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7, 0, 64), 64);  // bounds inclusive
  ::unsetenv("GEO_TEST_KNOB");
}

TEST(ParseSize, StrictWholeStringWithBinarySuffixes) {
  EXPECT_EQ(parse_size("0"), 0);
  EXPECT_EQ(parse_size("123"), 123);           // bare number, unit 1 = bytes
  EXPECT_EQ(parse_size("123", 1 << 20), 123ll << 20);  // knob-baked unit
  EXPECT_EQ(parse_size("64K"), 64ll << 10);
  EXPECT_EQ(parse_size("64kb"), 64ll << 10);   // case-insensitive
  EXPECT_EQ(parse_size("64KiB"), 64ll << 10);
  EXPECT_EQ(parse_size("3M"), 3ll << 20);
  EXPECT_EQ(parse_size("3MiB"), 3ll << 20);
  EXPECT_EQ(parse_size("2G"), 2ll << 30);
  EXPECT_EQ(parse_size("2gib"), 2ll << 30);
  EXPECT_EQ(parse_size("5B"), 5);              // explicit bytes beat the unit
  EXPECT_EQ(parse_size("5B", 1 << 20), 5);

  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("K").has_value());       // no digits
  EXPECT_FALSE(parse_size("-1").has_value());      // sizes are unsigned
  EXPECT_FALSE(parse_size("12 K").has_value());    // interior junk
  EXPECT_FALSE(parse_size("12KB3").has_value());   // trailing junk
  EXPECT_FALSE(parse_size("12T").has_value());     // unsupported suffix
  EXPECT_FALSE(parse_size("99999999999G").has_value());  // overflow
}

TEST(EnvSize, FallsBackOnMalformedAndRespectsSuffixes) {
  ::unsetenv("GEO_TEST_SIZE");
  EXPECT_EQ(env_size("GEO_TEST_SIZE", 42), 42);
  ::setenv("GEO_TEST_SIZE", "8", 1);
  EXPECT_EQ(env_size("GEO_TEST_SIZE", 42, 1 << 20), 8ll << 20);
  ::setenv("GEO_TEST_SIZE", "16KiB", 1);
  EXPECT_EQ(env_size("GEO_TEST_SIZE", 42, 1 << 20), 16ll << 10);
  ::setenv("GEO_TEST_SIZE", "garbage", 1);
  EXPECT_EQ(env_size("GEO_TEST_SIZE", 42), 42);
  ::setenv("GEO_TEST_SIZE", "8", 1);
  EXPECT_EQ(env_size("GEO_TEST_SIZE", 42, 1, 16, 1024), 42);  // below lo
  ::unsetenv("GEO_TEST_SIZE");
}

TEST(EnvInt, ReReadsTheEnvironmentEachCall) {
  ::setenv("GEO_TEST_KNOB2", "1", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB2", 0), 1);
  ::setenv("GEO_TEST_KNOB2", "2", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB2", 0), 2);
  ::unsetenv("GEO_TEST_KNOB2");
}

// Integer knobs fail closed like every other knob: a rejected value leaves a
// `config.invalid` journal entry, once per variable however often the knob
// is read.
TEST(EnvInt, MalformedKnobIsJournaledOnce) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_env_int.jsonl").string();
  auto& journal = telemetry::Journal::instance();
  journal.disable();
  journal.enable(path, 64);
  ::setenv("GEO_TEST_KNOB3", "lots", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB3", 5), 5);
  EXPECT_EQ(env_int("GEO_TEST_KNOB3", 5), 5);
  ::unsetenv("GEO_TEST_KNOB3");
  int entries = 0;
  for (const telemetry::JournalEntry& e : journal.snapshot())
    entries += e.kind == "config.invalid" && e.label == "GEO_TEST_KNOB3";
  journal.disable();
  std::filesystem::remove(path);
  EXPECT_EQ(entries, 1);
}

}  // namespace
}  // namespace geo::core
