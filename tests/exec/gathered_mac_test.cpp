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
// ragged; the test asserts that its cases really hit those corners.
//
// The nn layer computes a whole kernel at once, while the machine adds one
// count per kernel slice. The reference for a sliced layer is therefore the
// sum over slices of nn runs whose weights outside the slice are zeroed: a
// zero weight's streams are all-zero, so its products vanish from every
// accumulator. That stays exact under SECDED SRAM faults with 2-bit bursts
// (a zero word reads back as zero: corrected or zeroed) and under a stuck
// counter column (applied per slice on both sides). Accumulator-input flips
// would hit the zeroed taps' products too, so the accum leg runs on a
// single-slice schedule. The machine models APC as exact counting, so its
// reference is the nn layer in FXP mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"

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
  int mid_group = 0, ragged_channels = 0, ragged_windows = 0, padded = 0;
  for (const int L : {32, 64, 128}) {
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
        HwConfig whole = c.hw;
        whole.macs_per_row = s.taps();
        ScopedFaultInjection inject(stuck_faults(rng, 0.02));
        EXPECT_EQ(machine_counts(c, whole), nn_counts(c, whole, 0, s.taps()))
            << "accum flips + stuck column";
      }
    }
  }
  EXPECT_GT(mid_group, 0);
  EXPECT_GT(ragged_channels, 0);
  EXPECT_GT(ragged_windows, 0);
  EXPECT_GT(padded, 0);
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
