// Randomized differential test of the machine's gathered MAC (ctest -L simd
// and -L exec): random layer shapes, pass schedules, accumulation modes and
// stream lengths, run on GeoMachine and checked count for count against
// nn::ScConv2d. Each case runs four ways:
//   clean   no fault model                          -> gathered reduction
//   sram    SRAM faults, SECDED, 2-bit bursts       -> gathered reduction
//   stuck   stuck counter column                    -> per-tap reduction
//   accum   accum-input flips + stuck counter column -> per-tap reduction
// Small `macs_per_row` values slice kernels mid-group (tap_lo % kw != 0),
// small `rows` leave cout % rows != 0, and the window groups come out
// ragged; at L <= 32 several windows share a packed word and the last word
// of a pass is often partly filled. The test asserts that its cases really
// hit those corners; PackedWordCorners pins the packing corners directly,
// and RunGatherCorners the corners of the gather's kernel-row runs.
//
// The nn layer computes a whole kernel at once, while the machine adds one
// count per kernel slice. The reference for a sliced layer is therefore the
// sum over slices of nn runs whose weights outside the slice are zeroed: a
// zero weight's streams are all-zero, so its products vanish from every
// accumulator. That stays exact under SECDED SRAM faults with 2-bit bursts
// (a zero word reads back as zero: corrected or zeroed) and under a stuck
// counter column (applied per slice on both sides). Accumulator-input flips
// would hit the zeroed taps' products too, so the accum leg checks against
// a per-slice per-tap reference instead, on the case's own (often sliced)
// schedule; on a single-slice schedule that reference must also match the
// nn layer. The machine models APC as exact counting, so its reference is
// the nn layer in FXP mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/telemetry.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using fault::EccMode;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

struct Case {
  ConvShape shape;
  HwConfig hw;
  std::vector<float> weights, input, ones, zeros;
  std::uint64_t salt = 0;
};

Case random_case(std::mt19937& rng, nn::AccumMode accum, int L) {
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Case c;
  ConvShape& s = c.shape;
  s.name = "diff";
  s.cin = pick(1, 4);
  s.cout = pick(1, 7);
  s.kh = s.kw = pick(1, 4);
  s.stride = pick(1, 2);
  s.pad = pick(0, s.kw);
  s.hin = pick(std::max(1, s.kh - 2 * s.pad), 7);
  s.win = pick(std::max(1, s.kw - 2 * s.pad), 7);

  HwConfig& hw = c.hw;
  hw = HwConfig::ulp();
  hw.accum = accum;
  hw.stream_len = hw.stream_len_pool = hw.stream_len_output = L;
  hw.progressive = pick(0, 1) == 1;
  hw.sharing = static_cast<sc::Sharing>(pick(0, 2));
  hw.rows = pick(1, 8);
  hw.windows_per_row = pick(2, 5);
  // Two of three cases slice the kernel (at most ~6 slices, so the sliced
  // reference stays a handful of nn runs); the rest fit a row, where rows
  // share their weights across several windows per pass.
  const int K = s.taps();
  hw.macs_per_row = K > 1 && pick(0, 2) != 0
                        ? pick(std::max(1, K / 6), K - 1)
                        : pick(K, 3 * K);

  std::uniform_real_distribution<float> wdist(-0.9f, 0.9f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  c.weights.resize(static_cast<std::size_t>(s.weights()));
  for (auto& w : c.weights) w = wdist(rng);
  c.input.resize(static_cast<std::size_t>(s.activations()));
  for (auto& a : c.input) a = adist(rng);
  c.ones.assign(static_cast<std::size_t>(s.cout), 1.0f);
  c.zeros.assign(static_cast<std::size_t>(s.cout), 0.0f);
  c.salt = static_cast<std::uint64_t>(pick(0, 1 << 20));
  return c;
}

std::vector<std::int64_t> machine_counts(const Case& c, const HwConfig& hw) {
  GeoMachine machine(hw);
  auto r = machine.try_run_conv(c.shape, c.weights, c.input, c.ones, c.zeros,
                                c.salt);
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.ok()) return {};
  EXPECT_TRUE(r->stats.ledger_ok);
  return {r->counters.begin(), r->counters.end()};
}

// nn::ScConv2d pre-BN counts with every weight outside taps [lo, hi) zeroed.
std::vector<std::int64_t> nn_counts(const Case& c, const HwConfig& hw,
                                    int lo, int hi) {
  const ConvShape& s = c.shape;
  nn::ScLayerConfig cfg = GeoMachine(hw).layer_config(s, c.salt);
  if (cfg.accum == nn::AccumMode::kApc) cfg.accum = nn::AccumMode::kFxp;
  std::mt19937 init(1);
  nn::ScConv2d ref(s.cin, s.cout, s.kh, s.stride, s.pad, init, cfg);
  const int K = s.taps();
  auto w = ref.weight().value.data().begin();
  for (std::size_t i = 0; i < c.weights.size(); ++i) {
    const int t = static_cast<int>(i % static_cast<std::size_t>(K));
    w[static_cast<std::ptrdiff_t>(i)] = t >= lo && t < hi ? c.weights[i] : 0;
  }
  nn::Tensor x({1, s.cin, s.hin, s.win});
  std::copy(c.input.begin(), c.input.end(), x.data().begin());
  const nn::Tensor y = ref.forward(x, false);
  std::vector<std::int64_t> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    out[i] = std::llround(static_cast<double>(y[i]) * cfg.stream_len);
  return out;
}

// The machine's slice-by-slice arithmetic, rebuilt from nn runs.
std::vector<std::int64_t> sliced_reference(const Case& c,
                                           const HwConfig& hw) {
  const int K = c.shape.taps();
  std::vector<std::int64_t> sum;
  for (int lo = 0; lo < K; lo += hw.macs_per_row) {
    const std::vector<std::int64_t> part =
        nn_counts(c, hw, lo, std::min(K, lo + hw.macs_per_row));
    if (sum.empty()) sum.assign(part.size(), 0);
    for (std::size_t i = 0; i < part.size(); ++i) sum[i] += part[i];
  }
  return sum;
}

// The machine's per-tap reduction, rebuilt slice by slice from the shared
// stream builders: each slice of hw.macs_per_row taps visits only its
// in-bounds taps, flips each product pair at the machine's accumulator
// sites (oidx * K + t) * 2 and + 1, ORs tap t into group t % groups (FXP
// and APC count every product), and runs its per-cycle counts through the
// stuck column before the slice's partial sum is added.
std::vector<std::int64_t> per_tap_reference(const Case& c,
                                            const HwConfig& hw) {
  const ConvShape& s = c.shape;
  const nn::ScLayerConfig cfg = GeoMachine(hw).layer_config(s, c.salt);
  fault::FaultModel* const fm = fault::active();
  const bool use_table = sc::stream_table_enabled();
  const int K = s.taps(), L = cfg.stream_len;
  const std::size_t wpl = static_cast<std::size_t>((L + 63) / 64);
  const sc::KernelExtents ext{s.cout, s.cin, s.kh, s.kw};
  const sc::SeedAllocator alloc(cfg.sharing, cfg.lfsr_bits(), ext,
                                cfg.layer_salt);
  const nn::WeightBank bank = nn::build_weight_bank(
      c.weights, ext, cfg, alloc,
      {.oc_stride = static_cast<std::size_t>(K) * wpl, .tap_stride = wpl,
       .word_stride = 1},
      fm, use_table);
  std::vector<std::uint32_t> slots(c.input.size());
  std::iota(slots.begin(), slots.end(), 0u);
  std::vector<std::uint64_t> act(slots.size() * wpl);
  nn::build_activation_streams(
      act.data(), c.input, slots, cfg, alloc,
      nn::resolve_activation_tables(cfg, alloc, slots.size(), fm, use_table),
      fm, use_table);

  const bool direct =
      cfg.accum == nn::AccumMode::kFxp || cfg.accum == nn::AccumMode::kApc;
  const int groups = cfg.accum == nn::AccumMode::kPbw    ? s.kw
                     : cfg.accum == nn::AccumMode::kPbhw ? s.kh * s.kw
                                                         : 1;
  const int lanes = direct ? 1 : groups;
  // Per-cycle counts of one slice: [lane][sign][cycle].
  std::vector<std::uint32_t> cycles(static_cast<std::size_t>(lanes) * 2 * L);
  std::vector<std::uint64_t> prod(2 * wpl);
  std::vector<std::int64_t> out(static_cast<std::size_t>(s.outputs()), 0);
  for (int oc = 0; oc < s.cout; ++oc)
    for (int oy = 0; oy < s.hout(); ++oy)
      for (int ox = 0; ox < s.wout(); ++ox) {
        const std::size_t oidx =
            (static_cast<std::size_t>(oc) * s.hout() + oy) * s.wout() + ox;
        for (int lo = 0; lo < K; lo += hw.macs_per_row) {
          std::fill(cycles.begin(), cycles.end(), 0);
          for (int t = lo; t < std::min(K, lo + hw.macs_per_row); ++t) {
            const int ic = t / (s.kh * s.kw), ky = t / s.kw % s.kh,
                      kx = t % s.kw;
            const int iy = oy * s.stride - s.pad + ky;
            const int ix = ox * s.stride - s.pad + kx;
            if (iy < 0 || iy >= s.hin || ix < 0 || ix >= s.win) continue;
            const std::uint64_t* a =
                &act[((static_cast<std::size_t>(ic) * s.hin + iy) * s.win +
                      ix) *
                     wpl];
            const std::size_t w = (static_cast<std::size_t>(oc) * K + t) * wpl;
            for (std::size_t j = 0; j < wpl; ++j) {
              prod[j] = a[j] & bank.pos[w + j];
              prod[wpl + j] = a[j] & bank.neg[w + j];
            }
            if (fm != nullptr) {
              const std::uint64_t site =
                  (static_cast<std::uint64_t>(oidx) * K + t) * 2;
              fm->corrupt_accum_input(prod.data(),
                                      static_cast<std::size_t>(L), site);
              fm->corrupt_accum_input(prod.data() + wpl,
                                      static_cast<std::size_t>(L), site + 1);
            }
            const std::size_t lane = direct ? 0 : t % groups;
            for (int sign = 0; sign < 2; ++sign)
              for (int b = 0; b < L; ++b) {
                const auto on = static_cast<std::uint32_t>(
                    (prod[sign * wpl + static_cast<std::size_t>(b >> 6)] >>
                     (b & 63)) &
                    1u);
                std::uint32_t& n =
                    cycles[(lane * 2 + sign) * L + static_cast<std::size_t>(b)];
                n = direct ? n + on : (n | on);
              }
          }
          std::int64_t total = 0;
          for (std::size_t i = 0; i < cycles.size(); ++i) {
            const std::int64_t v =
                fm != nullptr ? fm->apply_stuck(cycles[i]) : cycles[i];
            total += (i / L) % 2 == 0 ? v : -v;
          }
          out[oidx] += total;
        }
      }
  return out;
}

std::string describe(const Case& c) {
  const ConvShape& s = c.shape;
  return "cin=" + std::to_string(s.cin) + " cout=" + std::to_string(s.cout) +
         " hin=" + std::to_string(s.hin) + " win=" + std::to_string(s.win) +
         " k=" + std::to_string(s.kw) + " stride=" +
         std::to_string(s.stride) + " pad=" + std::to_string(s.pad) +
         " L=" + std::to_string(c.hw.stream_len) + " rows=" +
         std::to_string(c.hw.rows) + " macs_per_row=" +
         std::to_string(c.hw.macs_per_row) + " windows_per_row=" +
         std::to_string(c.hw.windows_per_row) + " progressive=" +
         std::to_string(c.hw.progressive) + " salt=" +
         std::to_string(c.salt);
}

FaultConfig sram_faults(std::uint64_t seed) {
  FaultConfig f;
  f.sram_error_rate = 2e-2;
  f.sram_burst = 2;
  f.ecc = EccMode::kSecded;
  f.rng_seed = seed;
  return f;
}

FaultConfig stuck_faults(std::mt19937& rng, double accum_rate) {
  FaultConfig f;
  f.stuck.column = std::uniform_int_distribution<int>(0, 3)(rng);
  f.stuck.value = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
  f.accum_flip_rate = accum_rate;
  f.rng_seed = rng();
  return f;
}

class GatheredMac : public ::testing::TestWithParam<nn::AccumMode> {};

TEST_P(GatheredMac, MatchesScConv2dOnRandomLayers) {
  const nn::AccumMode accum = GetParam();
  int mid_group = 0, ragged_channels = 0, ragged_windows = 0, padded = 0,
      partial_words = 0, strided = 0, sliced_accum = 0;
  for (const int L : {8, 16, 32, 64, 128}) {
    std::mt19937 rng(1000u * static_cast<unsigned>(accum) +
                     static_cast<unsigned>(L));
    for (int n = 0; n < 8; ++n) {
      const Case c = random_case(rng, accum, L);
      const ConvShape& s = c.shape;
      SCOPED_TRACE(describe(c));
      const int M = c.hw.macs_per_row;
      for (int lo = M; lo < s.taps(); lo += M) mid_group += lo % s.kw != 0;
      ragged_channels += s.cout % c.hw.rows != 0;
      const arch::LayerPlan plan = arch::Compiler(c.hw).plan_layer(
          s, arch::Compiler(c.hw).natural_dataflow());
      ragged_windows += (s.hout() * s.wout()) % plan.windows_per_pass != 0;
      padded += s.pad > 0;
      strided += s.stride == 2;
      partial_words += L <= 32 && plan.windows_per_pass % (64 / L) != 0;

      {
        ScopedFaultInjection off(nullptr);  // shield from ambient GEO_FAULTS
        EXPECT_EQ(machine_counts(c, c.hw), sliced_reference(c, c.hw))
            << "clean";
      }
      {
        ScopedFaultInjection inject(sram_faults(rng()));
        EXPECT_EQ(machine_counts(c, c.hw), sliced_reference(c, c.hw))
            << "sram faults";
      }
      {
        ScopedFaultInjection inject(stuck_faults(rng, 0.0));
        EXPECT_EQ(machine_counts(c, c.hw), sliced_reference(c, c.hw))
            << "stuck column";
      }
      {
        ScopedFaultInjection inject(stuck_faults(rng, 0.02));
        const std::vector<std::int64_t> want = per_tap_reference(c, c.hw);
        EXPECT_EQ(machine_counts(c, c.hw), want)
            << "accum flips + stuck column";
        if (plan.kernel_slices == 1) {
          EXPECT_EQ(want, nn_counts(c, c.hw, 0, s.taps()))
              << "per-tap reference vs nn, accum flips + stuck column";
        }
        sliced_accum += plan.kernel_slices > 1;
      }
    }
  }
  EXPECT_GT(mid_group, 0);
  EXPECT_GT(ragged_channels, 0);
  EXPECT_GT(ragged_windows, 0);
  EXPECT_GT(padded, 0);
  EXPECT_GT(partial_words, 0);
  EXPECT_GT(strided, 0);
  EXPECT_GT(sliced_accum, 0);
}

// What the gather's kernel-row runs meet on a layer: the gather copies the
// kx taps of one kernel row (within one slice) as one run, clipped to the
// input columns once.
struct RunCorners {
  int both_sides_clipped = 0;  // a run sticks out left and right
  int mid_row_slices = 0;      // a slice starts at kx != 0
};

RunCorners run_corners(const ConvShape& s, int macs_per_row) {
  RunCorners rc;
  const int K = s.taps();
  for (int lo = 0; lo < K; lo += macs_per_row) {
    const int hi = std::min(K, lo + macs_per_row);
    rc.mid_row_slices += lo % s.kw != 0;
    for (int ox = 0; ox < s.wout(); ++ox)
      for (int t = lo; t < hi;) {
        const int kx = t % s.kw, n = std::min(hi - t, s.kw - kx);
        const int ix = ox * s.stride - s.pad + kx;
        rc.both_sides_clipped += ix < 0 && ix + n > s.win;
        t += n;
      }
  }
  return rc;
}

std::int64_t act_streams_generated() {
  return telemetry::MetricsRegistry::instance()
      .counter("machine.act_streams_generated")
      .value();
}

// The run gather's corners, each clean and under SRAM faults (the lazy
// per-slot path) against the sliced nn reference: runs clipped on both
// sides (pad > 0 with a kernel row wider than the input), slices that start
// mid kernel row, stride 2 with padding, and stride 2 without padding,
// where some inputs are never read. There both paths generate exactly the
// read slots' streams, counted by machine.act_streams_generated.
TEST_P(GatheredMac, RunGatherCorners) {
  struct Corner {
    int cin, hw_in, k, stride, pad, macs_per_row;  // 0: the whole kernel
  };
  const Corner corners[] = {
      {2, 1, 3, 1, 1, 0},  // every run clipped on both sides
      {3, 2, 4, 1, 2, 0},  // some runs clipped on both sides
      {2, 5, 3, 1, 1, 4},  // slices start at kx = 1 and 2
      {2, 6, 3, 2, 1, 5},  // stride 2, padded, mid-row slices
      {2, 5, 1, 2, 0, 0},  // stride 2: odd rows and columns never read
      {3, 7, 2, 2, 0, 3},  // stride 2: the last row and column never read
  };
  RunCorners hit;
  int unread_layers = 0;
  for (const int L : {8, 32, 64}) {
    std::mt19937 rng(313u + static_cast<unsigned>(L));
    for (const Corner& k : corners) {
      Case c = random_case(rng, GetParam(), L);
      ConvShape& s = c.shape;
      s.cin = k.cin;
      s.hin = s.win = k.hw_in;
      s.kh = s.kw = k.k;
      s.stride = k.stride;
      s.pad = k.pad;
      c.hw.macs_per_row = k.macs_per_row > 0 ? k.macs_per_row : s.taps();
      std::uniform_real_distribution<float> wdist(-0.9f, 0.9f);
      std::uniform_real_distribution<float> adist(0.0f, 1.0f);
      c.weights.resize(static_cast<std::size_t>(s.weights()));
      for (auto& w : c.weights) w = wdist(rng);
      c.input.resize(static_cast<std::size_t>(s.activations()));
      for (auto& a : c.input) a = adist(rng);
      SCOPED_TRACE(describe(c));
      const RunCorners rc = run_corners(s, c.hw.macs_per_row);
      hit.both_sides_clipped += rc.both_sides_clipped;
      hit.mid_row_slices += rc.mid_row_slices;

      // Input rows (columns) some window reads: the ones a kernel row
      // covers, cin planes of them.
      auto covered = [&s](int in, int out) {
        int n = 0;
        for (int i = 0; i < in; ++i) {
          bool read = false;
          for (int o = 0; o < out; ++o)
            read |= i >= o * s.stride - s.pad &&
                    i < o * s.stride - s.pad + s.kw;
          n += read;
        }
        return n;
      };
      const std::int64_t read_slots = static_cast<std::int64_t>(s.cin) *
                                       covered(s.hin, s.hout()) *
                                       covered(s.win, s.wout());
      unread_layers += read_slots < s.activations();

      const std::vector<std::int64_t> want = sliced_reference(c, c.hw);
      std::int64_t generated[2] = {0, 0};
      {
        ScopedFaultInjection off(nullptr);
        const std::int64_t before = act_streams_generated();
        EXPECT_EQ(machine_counts(c, c.hw), want) << "clean";
        generated[0] = act_streams_generated() - before;
      }
      {
        ScopedFaultInjection inject(FaultConfig{});  // zero-rate: lazy path
        const std::int64_t before = act_streams_generated();
        EXPECT_EQ(machine_counts(c, c.hw), want) << "zero-rate faults";
        generated[1] = act_streams_generated() - before;
      }
      EXPECT_EQ(generated[0], read_slots);
      EXPECT_EQ(generated[1], read_slots);
      {
        ScopedFaultInjection inject(sram_faults(rng()));
        EXPECT_EQ(machine_counts(c, c.hw), sliced_reference(c, c.hw))
            << "sram faults";
      }
    }
  }
  EXPECT_GT(hit.both_sides_clipped, 0);
  EXPECT_GT(hit.mid_row_slices, 0);
  EXPECT_GT(unread_layers, 0);
}

// Window packing corners at every packed stream length (L <= 32 puts
// 64 / max(L, 8) windows in a word): odd windows per pass, so the last
// word of a tile is partly filled; output channel counts that are not a
// multiple of any vector's channel block (2 or 4), so the kernels' scalar
// tail runs; and a 2x2 input under a 3x3 kernel with pad 1, where every
// window of every word has padded taps. Each runs clean and under SRAM
// faults (both packed) against one whole-kernel nn run.
TEST_P(GatheredMac, PackedWordCorners) {
  struct Corner {
    int cin, cout, hw_in, k, pad, rows, windows_per_row;
  };
  const Corner corners[] = {
      {2, 5, 2, 3, 1, 8, 3},    // all windows padded; 3 + 1 windows/tile
      {3, 13, 6, 3, 1, 16, 5},  // 13 channels: 4-block tail of 1
      {1, 7, 5, 2, 0, 7, 7},    // 7 windows/pass, 7 channels
      {2, 3, 4, 1, 0, 3, 3},    // 1x1 kernel, 3 windows/pass
  };
  for (const int L : {8, 16, 32}) {
    std::mt19937 rng(77u + static_cast<unsigned>(L));
    for (const Corner& k : corners) {
      Case c = random_case(rng, GetParam(), L);
      ConvShape& s = c.shape;
      s.cin = k.cin;
      s.cout = k.cout;
      s.hin = s.win = k.hw_in;
      s.kh = s.kw = k.k;
      s.stride = 1;
      s.pad = k.pad;
      c.hw.rows = k.rows;
      c.hw.windows_per_row = k.windows_per_row;
      c.hw.macs_per_row = s.taps() * k.windows_per_row;
      std::uniform_real_distribution<float> wdist(-0.9f, 0.9f);
      std::uniform_real_distribution<float> adist(0.0f, 1.0f);
      c.weights.resize(static_cast<std::size_t>(s.weights()));
      for (auto& w : c.weights) w = wdist(rng);
      c.input.resize(static_cast<std::size_t>(s.activations()));
      for (auto& a : c.input) a = adist(rng);
      c.ones.assign(static_cast<std::size_t>(s.cout), 1.0f);
      c.zeros.assign(static_cast<std::size_t>(s.cout), 0.0f);
      SCOPED_TRACE(describe(c));
      const arch::LayerPlan plan = arch::Compiler(c.hw).plan_layer(
          s, arch::Compiler(c.hw).natural_dataflow());
      ASSERT_EQ(plan.windows_per_pass % 2, 1);
      ASSERT_EQ(plan.kernel_slices, 1);
      {
        ScopedFaultInjection off(nullptr);
        EXPECT_EQ(machine_counts(c, c.hw), nn_counts(c, c.hw, 0, s.taps()))
            << "clean";
      }
      {
        ScopedFaultInjection inject(sram_faults(rng()));
        EXPECT_EQ(machine_counts(c, c.hw), nn_counts(c, c.hw, 0, s.taps()))
            << "sram faults";
      }
    }
  }
}

// 96-bit streams: the LFSR width is matched to the stream length, so only
// 2^n lengths exist. The machine must refuse one by Status before it
// allocates anything, not crash or throw.
TEST_P(GatheredMac, RefusesNonPowerOfTwoStreams) {
  std::mt19937 rng(7);
  const Case c = random_case(rng, GetParam(), 96);
  GeoMachine machine(c.hw);
  auto r = machine.try_run_conv(c.shape, c.weights, c.input, c.ones, c.zeros,
                                c.salt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), geo::StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Accum, GatheredMac,
                         ::testing::Values(nn::AccumMode::kFxp,
                                           nn::AccumMode::kApc,
                                           nn::AccumMode::kOr,
                                           nn::AccumMode::kPbw,
                                           nn::AccumMode::kPbhw),
                         [](const auto& info) {
                           switch (info.param) {
                             case nn::AccumMode::kFxp: return "Fxp";
                             case nn::AccumMode::kApc: return "Apc";
                             case nn::AccumMode::kOr: return "Or";
                             case nn::AccumMode::kPbw: return "Pbw";
                             case nn::AccumMode::kPbhw: return "Pbhw";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace geo
