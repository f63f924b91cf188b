// Streamgen suite: the table-driven generation engine must be bit-identical
// to the tick path for every value, seed, polynomial, length, and schedule —
// and the shared-sequence cache must key on the spec the faults actually
// rewrote. Runs as its own binary (`ctest -L streamgen`) so registry clears
// and env-knob churn never interleave with the tier-1 tests.
#include "sc/stream_table.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "sc/lfsr.hpp"
#include "sc/sobol.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::sc {
namespace {

using Words = std::vector<std::uint64_t>;

std::size_t words_per_line(std::size_t length) { return (length + 63) / 64; }

// Packs a Bitstream into the engine's word layout (bit i -> word i/64,
// bit i%64) so reference and engine output compare word-for-word.
Words pack(const Bitstream& s) {
  Words w(words_per_line(s.length()), 0);
  for (std::size_t i = 0; i < s.length(); ++i)
    if (s.get(i)) w[i >> 6] |= std::uint64_t{1} << (i & 63);
  return w;
}

Words engine_plain(RngKind kind, const SeedSpec& spec, std::uint32_t vn,
                   std::size_t length, bool use_table) {
  Words w(words_per_line(length), 0);
  StreamGenerator::local().generate(w.data(), w.size(), length, kind, spec,
                                    vn, use_table);
  return w;
}

Words engine_progressive(RngKind kind, const SeedSpec& spec,
                         const ProgressiveSchedule& sched, std::uint32_t value,
                         std::size_t length, bool use_table) {
  Words w(words_per_line(length), 0);
  StreamGenerator::local().generate_progressive(w.data(), w.size(), length,
                                                kind, spec, sched, value,
                                                use_table);
  return w;
}

Words reference_plain(RngKind kind, const SeedSpec& spec, std::uint32_t vn,
                      std::size_t length) {
  Sng sng(kind, spec);
  return pack(sng.generate(vn, length));
}

Words reference_progressive(RngKind kind, const SeedSpec& spec,
                            const ProgressiveSchedule& sched,
                            std::uint32_t value, std::size_t length) {
  ProgressiveSng sng(kind, spec, sched);
  return pack(sng.generate(value, length));
}

// Scoped setenv/restore so knob tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

// --- exhaustive table-vs-tick equivalence ---------------------------------

TEST(StreamTableExhaustive, PlainMatchesTickForAllValuesSeedsTapsLengths) {
  const std::uint32_t seeds[] = {1, 7, 42, 901};
  const std::size_t lengths[] = {32, 128, 256};
  for (unsigned bits : {5u, 7u, 8u}) {
    const auto taps = Lfsr::find_maximal_taps(bits, 2);
    ASSERT_GE(taps.size(), 2u) << "need two polynomials at " << bits;
    for (std::uint32_t tap_mask : {std::uint32_t{0}, taps[1]}) {
      for (std::uint32_t seed : seeds) {
        const SeedSpec spec{bits, seed, tap_mask};
        for (std::size_t length : lengths) {
          const std::uint32_t top = std::uint32_t{1} << bits;
          for (std::uint32_t v = 0; v < top; ++v) {
            const Words ref = reference_plain(RngKind::kLfsr, spec, v, length);
            EXPECT_EQ(engine_plain(RngKind::kLfsr, spec, v, length, true), ref)
                << "table path: bits=" << bits << " taps=" << tap_mask
                << " seed=" << seed << " L=" << length << " v=" << v;
            EXPECT_EQ(engine_plain(RngKind::kLfsr, spec, v, length, false),
                      ref)
                << "tick path: bits=" << bits << " taps=" << tap_mask
                << " seed=" << seed << " L=" << length << " v=" << v;
          }
        }
      }
    }
  }
}

TEST(StreamTableExhaustive, ProgressiveMatchesTickForAllValues) {
  const std::uint32_t seeds[] = {1, 7, 42, 901};
  const auto taps8 = Lfsr::find_maximal_taps(8, 2);
  ASSERT_GE(taps8.size(), 2u);
  const ProgressiveSchedule sched{};  // the paper's 8/8/2/2 schedule
  for (std::uint32_t tap_mask : {std::uint32_t{0}, taps8[1]}) {
    for (std::uint32_t seed : seeds) {
      const SeedSpec spec{8, seed, tap_mask};
      for (std::size_t length : {std::size_t{32}, std::size_t{128},
                                 std::size_t{256}}) {
        for (std::uint32_t v = 0; v < 256; ++v) {
          const Words ref =
              reference_progressive(RngKind::kLfsr, spec, sched, v, length);
          EXPECT_EQ(
              engine_progressive(RngKind::kLfsr, spec, sched, v, length, true),
              ref)
              << "table: taps=" << tap_mask << " seed=" << seed
              << " L=" << length << " v=" << v;
          EXPECT_EQ(engine_progressive(RngKind::kLfsr, spec, sched, v, length,
                                       false),
                    ref)
              << "tick: taps=" << tap_mask << " seed=" << seed
              << " L=" << length << " v=" << v;
        }
      }
    }
  }
}

// Schedules where value_bits != lfsr_bits, odd beat geometry, and a beat
// period that does not divide the stream length.
TEST(StreamTableExhaustive, ProgressiveOddSchedules) {
  struct Case {
    ProgressiveSchedule sched;
    unsigned lfsr_bits;
    std::size_t length;
  };
  const Case cases[] = {
      {{8, 5, 3, 1}, 5, 32},    // truncating: 8-bit value, 5-bit LFSR
      {{6, 6, 1, 3}, 6, 100},   // 1-bit beats, period 3, L not a multiple
      {{4, 8, 2, 2}, 8, 256},   // widening: value narrower than the LFSR
      {{8, 8, 8, 4}, 8, 37},    // whole value in one beat, odd length
  };
  for (const Case& c : cases) {
    const SeedSpec spec{c.lfsr_bits, 19, 0};
    const std::uint32_t top = std::uint32_t{1} << c.sched.value_bits;
    for (std::uint32_t v = 0; v < top; ++v) {
      const Words ref =
          reference_progressive(RngKind::kLfsr, spec, c.sched, v, c.length);
      EXPECT_EQ(engine_progressive(RngKind::kLfsr, spec, c.sched, v, c.length,
                                   true),
                ref)
          << "vb=" << c.sched.value_bits << " lb=" << c.sched.lfsr_bits
          << " gb=" << c.sched.group_bits << " bc=" << c.sched.beat_cycles
          << " v=" << v;
    }
  }
}

TEST(StreamTable, CounterAndSobolMatchTick) {
  for (RngKind kind : {RngKind::kCounter, RngKind::kSobol}) {
    for (std::uint32_t seed : {0u, 3u, 13u}) {
      const SeedSpec spec{6, seed, 0};
      for (std::size_t length : {std::size_t{64}, std::size_t{100}}) {
        for (std::uint32_t v = 0; v < 64; ++v) {
          const Words ref = reference_plain(kind, spec, v, length);
          EXPECT_EQ(engine_plain(kind, spec, v, length, true), ref)
              << to_string(kind) << " seed=" << seed << " L=" << length
              << " v=" << v;
        }
      }
    }
  }
}

// Lengths that straddle word boundaries and the LFSR period (255 for 8-bit):
// the table's prefix-OR must track the wrapped sequence exactly.
TEST(StreamTable, OddLengthsAndPeriodWrap) {
  const SeedSpec spec{8, 77, 0};
  for (std::size_t length : {std::size_t{1}, std::size_t{63}, std::size_t{65},
                             std::size_t{100}, std::size_t{300}}) {
    for (std::uint32_t v : {0u, 1u, 128u, 254u, 255u}) {
      EXPECT_EQ(engine_plain(RngKind::kLfsr, spec, v, length, true),
                reference_plain(RngKind::kLfsr, spec, v, length))
          << "L=" << length << " v=" << v;
    }
  }
}

TEST(StreamTable, ZeroValueNeverFires) {
  for (RngKind kind : {RngKind::kLfsr, RngKind::kCounter, RngKind::kSobol}) {
    const SeedSpec spec{8, 5, 0};
    const Words w = engine_plain(kind, spec, 0, 256, true);
    for (std::uint64_t word : w) EXPECT_EQ(word, 0u) << to_string(kind);
  }
}

// Values at or above 2^bits saturate exactly like Sng::load does.
TEST(StreamTable, OverRangeValueSaturates) {
  const SeedSpec spec{6, 9, 0};
  EXPECT_EQ(engine_plain(RngKind::kLfsr, spec, 1000, 128, true),
            reference_plain(RngKind::kLfsr, spec, 63, 128));
}

// --- reusable tick path (satellite: no per-stream allocation) -------------

TEST(StreamGeneratorReuse, ReseedMatchesFreshConstruction) {
  const SeedSpec a{8, 11, 0};
  const SeedSpec b{8, 200, Lfsr::find_maximal_taps(8, 2)[1]};
  for (RngKind kind : {RngKind::kLfsr, RngKind::kCounter, RngKind::kSobol,
                       RngKind::kTrng}) {
    Sng reused(kind, a);
    (void)reused.generate(40, 256);  // dirty the state
    reused.reseed(b);
    Sng fresh(kind, b);
    EXPECT_EQ(pack(reused.generate(40, 256)), pack(fresh.generate(40, 256)))
        << to_string(kind);
  }
}

TEST(StreamGeneratorReuse, ProgressiveReseedMatchesFreshConstruction) {
  const ProgressiveSchedule sched{};
  const SeedSpec a{8, 11, 0};
  const SeedSpec b{8, 200, 0};
  ProgressiveSng reused(RngKind::kLfsr, a, sched);
  (void)reused.generate(40, 256);
  reused.reseed(b);
  ProgressiveSng fresh(RngKind::kLfsr, b, sched);
  EXPECT_EQ(pack(reused.generate(40, 256)), pack(fresh.generate(40, 256)));
}

// The engine's TRNG path must be bit-identical to the per-stream
// fresh-construction it replaced: a fresh TrngSource always starts at epoch
// 1, and reseed() restores exactly that state.
TEST(StreamGeneratorReuse, TrngFallsBackBitIdentical) {
  const SeedSpec spec{8, 321, 0};
  for (std::uint32_t v : {1u, 100u, 255u}) {
    EXPECT_EQ(engine_plain(RngKind::kTrng, spec, v, 256, true),
              reference_plain(RngKind::kTrng, spec, v, 256));
  }
}

// --- registry behaviour ----------------------------------------------------

TEST(StreamTableRegistry, CanonicalKeyCollapsesEquivalentSpecs) {
  auto& reg = StreamTableRegistry::instance();
  reg.clear();

  // taps = 0 and the explicit default polynomial are the same sequence.
  const auto* a = reg.acquire(RngKind::kLfsr, {8, 5, 0}, 256);
  const auto* b =
      reg.acquire(RngKind::kLfsr, {8, 5, Lfsr::default_taps(8)}, 256);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);

  // Seed 0 silently remaps to 1 inside the LFSR.
  EXPECT_EQ(reg.acquire(RngKind::kLfsr, {8, 0, 0}, 256),
            reg.acquire(RngKind::kLfsr, {8, 1, 0}, 256));

  // Sobol dimensions wrap modulo kDimensions.
  EXPECT_EQ(reg.acquire(RngKind::kSobol, {8, 3, 0}, 128),
            reg.acquire(RngKind::kSobol, {8, 3 + SobolSource::kDimensions, 0},
                        128));

  // Different lengths are different tables.
  EXPECT_NE(reg.acquire(RngKind::kLfsr, {8, 5, 0}, 128), a);
}

TEST(StreamTableRegistry, TrngAndOversizeTablesFallBack) {
  auto& reg = StreamTableRegistry::instance();
  reg.clear();
  const std::uint64_t fallbacks = reg.fallbacks();

  EXPECT_EQ(reg.acquire(RngKind::kTrng, {8, 5, 0}, 256), nullptr);
  // 24-bit table at L=256: 2^24 rows * 4 words * 8 bytes = 512 MiB, far over
  // the per-table cap — must refuse without allocating.
  EXPECT_EQ(reg.acquire(RngKind::kLfsr, {24, 5, 0}, 256), nullptr);
  EXPECT_GE(reg.fallbacks(), fallbacks + 2);
  // The refused build leaves only a zero-byte negative-cache placeholder:
  // repeat acquires fall back immediately without re-attempting the build.
  EXPECT_EQ(reg.total_bytes(), 0u);
  EXPECT_EQ(reg.acquire(RngKind::kLfsr, {24, 5, 0}, 256), nullptr);

  // The generating engine still produces correct bits through the tick path.
  const SeedSpec wide{24, 5, 0};
  EXPECT_EQ(engine_plain(RngKind::kLfsr, wide, 12345, 128, true),
            reference_plain(RngKind::kLfsr, wide, 12345, 128));
}

TEST(StreamTableRegistry, StatsCountHitsAndMisses) {
  auto& reg = StreamTableRegistry::instance();
  reg.clear();
  const std::uint64_t hits = reg.hits();
  const std::uint64_t misses = reg.misses();

  const SeedSpec spec{8, 4242, 0};
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 256), nullptr);
  EXPECT_EQ(reg.misses(), misses + 1);
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 256), nullptr);
  EXPECT_EQ(reg.hits(), hits + 1);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.total_bytes(), StreamTable::bytes_for(8, 256));

  // Telemetry mirrors the registry counters.
  auto& metrics = telemetry::MetricsRegistry::instance();
  EXPECT_GE(metrics.counter("machine.stream_table_misses").value(), 1);
  EXPECT_GE(metrics.counter("machine.stream_table_build_ns").value(), 0);
}

// acquire() resolves its telemetry counters once; a metrics reset or a
// registry clear must not detach them from the registry's snapshot.
TEST(StreamTableRegistry, TelemetryCountsSurviveResetAndClear) {
  auto& reg = StreamTableRegistry::instance();
  auto& metrics = telemetry::MetricsRegistry::instance();
  const SeedSpec spec{8, 777, 0};
  reg.clear();
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 128), nullptr);  // warm

  metrics.reset();
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 128), nullptr);
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 128), nullptr);
  EXPECT_EQ(metrics.counter("machine.stream_table_hits").value(), 2);
  EXPECT_EQ(metrics.counter("machine.stream_table_misses").value(), 0);

  reg.clear();
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 128), nullptr);  // rebuild
  ASSERT_NE(reg.acquire(RngKind::kLfsr, spec, 128), nullptr);
  EXPECT_EQ(metrics.counter("machine.stream_table_hits").value(), 3);
  EXPECT_EQ(metrics.counter("machine.stream_table_misses").value(), 1);
  double snapshot_hits = -1;
  for (const telemetry::MetricSnapshot& m : metrics.snapshot())
    if (m.name == "machine.stream_table_hits") snapshot_hits = m.value;
  EXPECT_EQ(snapshot_hits, 3);
}

// Many threads race one cold key: exactly one build may happen, every
// waiter must observe the fully published table, and every generated stream
// must equal the tick reference.
TEST(StreamTableRegistry, ConcurrentAcquireBuildsOnceAndServesAll) {
  auto& reg = StreamTableRegistry::instance();
  reg.clear();
  const std::uint64_t misses = reg.misses();

  const SeedSpec spec{8, 3141, 0};
  const std::size_t length = 256;
  std::vector<Words> refs(256);
  for (std::uint32_t v = 0; v < 256; ++v)
    refs[v] = reference_plain(RngKind::kLfsr, spec, v, length);

  constexpr int kThreads = 8;
  constexpr int kIters = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 1);
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t v = rng() & 255u;
        Words w(words_per_line(length), 0);
        StreamGenerator::local().generate(w.data(), w.size(), length,
                                          RngKind::kLfsr, spec, v, true);
        if (w != refs[v]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.misses(), misses + 1);  // exactly one build
}

// --- fault interaction -----------------------------------------------------

// The cache is keyed AFTER fault::corrupt_seed rewrites a spec, so a
// seed-upset stream comes from the corrupted sequence's own table — never
// from the healthy one.
TEST(StreamTableFaults, CacheKeysTrackCorruptedSeeds) {
  fault::FaultConfig cfg;
  cfg.seed_upset_rate = 1.0;
  cfg.rng_seed = 99;
  fault::FaultModel fm(cfg);

  auto& reg = StreamTableRegistry::instance();
  reg.clear();

  const SeedSpec healthy{8, 21, 0};
  int upsets = 0;
  for (std::uint64_t site = 0; site < 8; ++site) {
    const SeedSpec hit = fm.corrupt_seed(healthy, site);
    if (!(hit == healthy)) ++upsets;
    for (std::uint32_t v : {1u, 77u, 200u}) {
      const Words ref = reference_plain(RngKind::kLfsr, hit, v, 256);
      EXPECT_EQ(engine_plain(RngKind::kLfsr, hit, v, 256, true), ref)
          << "site=" << site << " v=" << v;
      // And the healthy table must still serve the healthy sequence.
      EXPECT_EQ(engine_plain(RngKind::kLfsr, healthy, v, 256, true),
                reference_plain(RngKind::kLfsr, healthy, v, 256));
    }
  }
  EXPECT_GT(upsets, 0) << "rate-1.0 model never upset a seed";
  // One table per distinct corrupted sequence, plus the healthy one.
  EXPECT_GE(reg.size(), 2u);
}

// A machine run under a seed-upset fault scope must produce the same bytes
// with the cache on and off (the GEO_FAULTS bit-exactness contract).
TEST(StreamTableFaults, MachineFaultRunByteIdenticalAcrossKnob) {
  auto cfg = fault::FaultConfig::parse("seed=0.5,rng=7").value();

  arch::ConvShape shape =
      arch::ConvShape::conv("f", 3, 5, 4, 3, /*pad=*/1, /*pool=*/false);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> wd(-0.8f, 0.8f);
  std::uniform_real_distribution<float> ad(0.0f, 1.0f);
  std::vector<float> weights(static_cast<std::size_t>(shape.weights()));
  for (auto& w : weights) w = wd(rng);
  std::vector<float> input(static_cast<std::size_t>(shape.activations()));
  for (auto& a : input) a = ad(rng);
  const std::vector<float> ones(4, 1.0f), zeros(4, 0.0f);

  auto run = [&](const char* knob) {
    ScopedEnv env("GEO_STREAM_TABLE", knob);
    fault::ScopedFaultInjection scope(cfg);
    arch::GeoMachine machine(arch::HwConfig::ulp());
    return machine.run_conv(shape, weights, input, ones, zeros, 5);
  };
  const arch::MachineResult on = run("1");
  const arch::MachineResult off = run("0");
  EXPECT_EQ(on.counters, off.counters);
  EXPECT_EQ(on.activations, off.activations);
}

// --- end-to-end byte identity across the knob ------------------------------

class StreamTableKnobIdentity : public ::testing::TestWithParam<bool> {};

TEST_P(StreamTableKnobIdentity, MachineRunByteIdentical) {
  const bool progressive = GetParam();
  arch::HwConfig hw = arch::HwConfig::ulp();
  hw.progressive = progressive;

  arch::ConvShape shape =
      arch::ConvShape::conv("k", 4, 6, 5, 3, /*pad=*/1, /*pool=*/false);
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> wd(-0.8f, 0.8f);
  std::uniform_real_distribution<float> ad(0.0f, 1.0f);
  std::vector<float> weights(static_cast<std::size_t>(shape.weights()));
  for (auto& w : weights) w = wd(rng);
  std::vector<float> input(static_cast<std::size_t>(shape.activations()));
  for (auto& a : input) a = ad(rng);
  const std::vector<float> ones(5, 1.0f), zeros(5, 0.0f);

  auto run = [&](const char* knob) {
    ScopedEnv env("GEO_STREAM_TABLE", knob);
    arch::GeoMachine machine(hw);
    return machine.run_conv(shape, weights, input, ones, zeros, 9);
  };
  const arch::MachineResult on = run("1");
  const arch::MachineResult off = run("0");
  EXPECT_EQ(on.counters, off.counters);
  EXPECT_EQ(on.activations, off.activations);
}

INSTANTIATE_TEST_SUITE_P(Progressive, StreamTableKnobIdentity,
                         ::testing::Bool());

TEST(StreamTableKnob, ScLayerForwardByteIdentical) {
  for (bool progressive : {false, true}) {
    nn::ScLayerConfig cfg;
    cfg.progressive = progressive;
    auto forward = [&](const char* knob) {
      ScopedEnv env("GEO_STREAM_TABLE", knob);
      std::mt19937 init(17);
      nn::ScConv2d layer(3, 4, 3, 1, 1, init, cfg);
      nn::Tensor x({1, 3, 6, 6});
      std::mt19937 xr(5);
      std::uniform_real_distribution<float> ad(0.0f, 1.0f);
      for (auto& v : x.data()) v = ad(xr);
      return layer.forward(x, false);
    };
    const nn::Tensor on = forward("1");
    const nn::Tensor off = forward("0");
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i)
      EXPECT_EQ(on[i], off[i]) << "progressive=" << progressive << " output "
                               << i;
  }
}

// --- knob parsing ----------------------------------------------------------

TEST(StreamTableKnob, EnvTogglesAndToleratesGarbage) {
  {
    ScopedEnv env("GEO_STREAM_TABLE", "0");
    EXPECT_FALSE(stream_table_enabled());
  }
  {
    ScopedEnv env("GEO_STREAM_TABLE", "1");
    EXPECT_TRUE(stream_table_enabled());
  }
  {
    ScopedEnv env("GEO_STREAM_TABLE", nullptr);
    EXPECT_TRUE(stream_table_enabled());  // default on
  }
  {
    ScopedEnv env("GEO_STREAM_TABLE", "banana");
    EXPECT_TRUE(stream_table_enabled());  // malformed -> default, no abort
  }
}

TEST(StreamTableKnob, DisabledEngineBypassesRegistry) {
  auto& reg = StreamTableRegistry::instance();
  reg.clear();
  const SeedSpec spec{8, 60000, 0};
  const Words ref = reference_plain(RngKind::kLfsr, spec, 9, 256);
  EXPECT_EQ(engine_plain(RngKind::kLfsr, spec, 9, 256, /*use_table=*/false),
            ref);
  EXPECT_EQ(reg.size(), 0u);  // never consulted
}

}  // namespace
}  // namespace geo::sc
