#include "nn/sc_layers.hpp"

#include "core/env.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <string>

namespace geo::nn {
namespace {

Tensor random_acts(std::vector<int> shape, unsigned seed, float lo = 0.0f,
                   float hi = 1.0f) {
  Tensor x(std::move(shape));
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (auto& v : x.data()) v = dist(rng);
  return x;
}

ScLayerConfig cfg(AccumMode accum, int stream_len,
                  sc::Sharing sharing = sc::Sharing::kModerate,
                  sc::RngKind rng = sc::RngKind::kLfsr) {
  ScLayerConfig c;
  c.accum = accum;
  c.stream_len = stream_len;
  c.sharing = sharing;
  c.rng = rng;
  c.layer_salt = 12;
  return c;
}

double mean_abs_diff(const Tensor& a, const Tensor& b) {
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += std::abs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

TEST(ScLayerConfig, LfsrBitsMatchStreamLength) {
  EXPECT_EQ(cfg(AccumMode::kPbw, 32).lfsr_bits(), 5u);
  EXPECT_EQ(cfg(AccumMode::kPbw, 128).lfsr_bits(), 7u);
  EXPECT_THROW(cfg(AccumMode::kPbw, 100).lfsr_bits(), std::invalid_argument);
}

TEST(ScConv2d, FxpAccumulationApproximatesFloatConv) {
  // With per-product fixed-point accumulation the SC conv is an unbiased
  // estimate of the float conv (up to quantization + stream noise).
  std::mt19937 rng(1);
  ScConv2d conv(2, 3, 3, 1, 1, rng, cfg(AccumMode::kFxp, 256));
  // Small weights keep products in the accurate SC regime.
  for (auto& w : conv.weight().value.data()) w *= 0.5f;
  const Tensor x = random_acts({1, 2, 5, 5}, 2, 0.0f, 0.8f);

  std::mt19937 rng2(1);
  Conv2d ref(2, 3, 3, 1, 1, rng2);
  ref.weight().value = conv.weight().value;

  const Tensor y_sc = conv.forward(x, false);
  const Tensor y_ref = ref.forward(x, false);
  ASSERT_EQ(y_sc.shape(), y_ref.shape());
  EXPECT_LT(mean_abs_diff(y_sc, y_ref), 0.12)
      << "FXP-accumulated SC conv should track float conv";
}

TEST(ScConv2d, OrAccumulationUnderestimatesLargeSums) {
  std::mt19937 rng(3);
  ScConv2d or_conv(4, 2, 3, 1, 1, rng, cfg(AccumMode::kOr, 128));
  std::mt19937 rng2(3);
  ScConv2d fxp_conv(4, 2, 3, 1, 1, rng2, cfg(AccumMode::kFxp, 128));
  // All-positive weights make the OR-union loss visible.
  or_conv.weight().value.fill(0.35f);
  fxp_conv.weight().value.fill(0.35f);
  const Tensor x = random_acts({1, 4, 6, 6}, 4, 0.3f, 0.9f);
  const Tensor y_or = or_conv.forward(x, false);
  const Tensor y_fxp = fxp_conv.forward(x, false);
  double or_sum = 0, fxp_sum = 0;
  for (std::size_t i = 0; i < y_or.size(); ++i) {
    or_sum += y_or[i];
    fxp_sum += y_fxp[i];
  }
  EXPECT_LT(or_sum, 0.7 * fxp_sum)
      << "OR accumulation saturates well below the true sum";
}

TEST(ScConv2d, PbwSitsBetweenOrAndFxp) {
  // Partial binary accumulation recovers part of the OR loss (Sec. III-B).
  auto run = [](AccumMode mode) {
    std::mt19937 rng(5);
    ScConv2d conv(4, 2, 3, 1, 1, rng, cfg(mode, 128));
    conv.weight().value.fill(0.3f);
    const Tensor x = random_acts({1, 4, 6, 6}, 6, 0.3f, 0.9f);
    const Tensor y = conv.forward(x, false);
    double sum = 0;
    for (float v : y.data()) sum += v;
    return sum;
  };
  const double or_sum = run(AccumMode::kOr);
  const double pbw_sum = run(AccumMode::kPbw);
  const double pbhw_sum = run(AccumMode::kPbhw);
  const double fxp_sum = run(AccumMode::kFxp);
  EXPECT_LT(or_sum, pbw_sum);
  EXPECT_LT(pbw_sum, pbhw_sum);
  EXPECT_LE(pbhw_sum, fxp_sum * 1.02);
}

TEST(ScConv2d, ApcTracksFxp) {
  auto run = [](AccumMode mode) {
    std::mt19937 rng(7);
    ScConv2d conv(2, 2, 3, 1, 1, rng, cfg(mode, 128));
    const Tensor x = random_acts({1, 2, 5, 5}, 8, 0.0f, 0.9f);
    return conv.forward(x, false);
  };
  const Tensor apc = run(AccumMode::kApc);
  const Tensor fxp = run(AccumMode::kFxp);
  EXPECT_LT(mean_abs_diff(apc, fxp), 0.25);
}

TEST(ScConv2d, DeterministicWithLfsr) {
  std::mt19937 rng(9);
  ScConv2d conv(2, 2, 3, 1, 1, rng, cfg(AccumMode::kPbw, 64));
  const Tensor x = random_acts({1, 2, 5, 5}, 10);
  const Tensor a = conv.forward(x, false);
  const Tensor b = conv.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(a[i], b[i]) << "LFSR forward must replay exactly";
}

TEST(ScConv2d, TrngVariesBetweenPasses) {
  std::mt19937 rng(9);
  ScConv2d conv(2, 2, 3, 1, 1, rng,
                cfg(AccumMode::kPbw, 64, sc::Sharing::kModerate,
                    sc::RngKind::kTrng));
  const Tensor x = random_acts({1, 2, 5, 5}, 10);
  const Tensor a = conv.forward(x, false);
  const Tensor b = conv.forward(x, false);
  EXPECT_GT(mean_abs_diff(a, b), 1e-4)
      << "TRNG passes draw fresh randomness";
}

TEST(ScConv2d, ExtremeSharingDistortsOutputs) {
  auto run = [](sc::Sharing sharing) {
    std::mt19937 rng(11);
    ScConv2d conv(8, 2, 3, 1, 1, rng, cfg(AccumMode::kOr, 128, sharing));
    const Tensor x = random_acts({1, 8, 6, 6}, 12, 0.2f, 0.8f);
    std::mt19937 rng2(11);
    Conv2d ref(8, 2, 3, 1, 1, rng2);
    ref.weight().value = conv.weight().value;
    // Compare against float conv clipped through the same OR expectation is
    // overkill; relative distortion between sharing levels is the point.
    return mean_abs_diff(conv.forward(x, false), ref.forward(x, false));
  };
  const double moderate = run(sc::Sharing::kModerate);
  const double extreme = run(sc::Sharing::kExtreme);
  EXPECT_GT(extreme, moderate)
      << "extreme sharing correlates streams inside the dot product";
}

TEST(ScConv2d, StoresFloatInputForBackward) {
  std::mt19937 rng(13);
  ScConv2d conv(1, 1, 3, 1, 1, rng, cfg(AccumMode::kPbw, 64));
  const Tensor x = random_acts({1, 1, 4, 4}, 14);
  conv.forward(x, true);
  Tensor g({1, 1, 4, 4}, 1.0f);
  const Tensor gx = conv.backward(g);  // must not throw; float path
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(ScLinear, ApproximatesFloatLinear) {
  std::mt19937 rng(15);
  ScLayerConfig c = cfg(AccumMode::kFxp, 256);
  ScLinear lin(8, 3, rng, c);
  for (auto& w : lin.weight().value.data()) w *= 0.5f;
  std::mt19937 rng2(15);
  Linear ref(8, 3, rng2);
  ref.weight().value = lin.weight().value;
  ref.bias().value = lin.bias().value;
  const Tensor x = random_acts({2, 8}, 16, 0.0f, 0.9f);
  EXPECT_LT(mean_abs_diff(lin.forward(x, false), ref.forward(x, false)),
            0.15);
}

TEST(ScLinear, OrModeUsesSingleGroup) {
  std::mt19937 rng(17);
  ScLinear lin(16, 2, rng, cfg(AccumMode::kOr, 128));
  lin.weight().value.fill(0.4f);
  lin.bias().value.fill(0.0f);
  Tensor x({1, 16}, 0.8f);
  const Tensor y = lin.forward(x, false);
  // One OR group saturates at ~1.0 despite the true sum being ~5.1.
  EXPECT_LT(y[0], 1.1f);
}

TEST(QuantConv2d, MatchesManualFakeQuant) {
  std::mt19937 rng(19);
  QuantConv2d qconv(2, 2, 3, 1, 1, rng, 4);
  std::mt19937 rng2(19);
  Conv2d ref(2, 2, 3, 1, 1, rng2);
  ref.weight().value = fake_quantize_signed(qconv.weight().value, 4);
  const Tensor x = random_acts({1, 2, 5, 5}, 20);
  const Tensor yq = qconv.forward(x, false);
  const Tensor yr = ref.forward(fake_quantize_unsigned(x, 4), false);
  for (std::size_t i = 0; i < yq.size(); ++i)
    EXPECT_NEAR(yq[i], yr[i], 1e-5);
}

TEST(QuantConv2d, WeightsRestoredAfterForward) {
  std::mt19937 rng(21);
  QuantConv2d qconv(1, 1, 3, 1, 1, rng, 4);
  const Tensor before = qconv.weight().value;
  qconv.forward(random_acts({1, 1, 4, 4}, 22), false);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_FLOAT_EQ(qconv.weight().value[i], before[i]);
}

TEST(QuantLinear, LowerBitsHigherError) {
  const Tensor x = random_acts({4, 16}, 23);
  auto err = [&](unsigned bits) {
    std::mt19937 rng(25);
    QuantLinear q(16, 4, rng, bits);
    std::mt19937 rng2(25);
    Linear ref(16, 4, rng2);
    return mean_abs_diff(q.forward(x, false), ref.forward(x, false));
  };
  EXPECT_GT(err(2), err(8));
}

TEST(ScModelConfig, KeyDistinguishesConfigs) {
  ScModelConfig a = ScModelConfig::stochastic(32, 64);
  ScModelConfig b = ScModelConfig::stochastic(64, 128);
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.sharing = sc::Sharing::kExtreme;
  EXPECT_NE(a.key(), b.key());
  EXPECT_EQ(ScModelConfig::fixed_point(4).key(), "fxp4");
}

// ------------------------------------------------ reference pins
// The SC layers are the reference GeoMachine must match bit for bit, and the
// forward pass stream-aware training runs through. These tests pin their
// exact outputs so a rewrite of the forward kernels cannot drift.

// The fault sets every pinned case runs under: clean, then each injection
// domain the layers model. Column 0 stuck at 1 forces every OR group's
// 1-bit counter high; column 1 only bites the multi-bit FXP counter.
constexpr std::array<const char*, 5> kFaultSets = {
    "", "accum=2e-2,rng=7", "stuck=0:1,rng=7",
    "sram=1e-2,stream=1e-2,seed=5e-2,rng=7", "accum=1e-2,stuck=1:0,rng=7"};

// Installs the fault set (or pins faults off, overriding any ambient
// GEO_FAULTS) for the caller's scope.
std::unique_ptr<fault::ScopedFaultInjection> install_faults(const char* spec) {
  if (spec[0] == '\0')
    return std::make_unique<fault::ScopedFaultInjection>(nullptr);
  return std::make_unique<fault::ScopedFaultInjection>(
      fault::FaultConfig::parse(spec).value());
}

std::uint64_t fold(std::uint64_t h, const Tensor& t) {
  for (const float v : t.data())
    h = core::mix64(h ^ std::bit_cast<std::uint32_t>(v));
  return h;
}

enum class StreamKind { kLfsr, kTrng, kProgressive };

ScLayerConfig pinned_cfg(AccumMode accum, StreamKind kind) {
  ScLayerConfig c;
  c.accum = accum;
  c.layer_salt = 12;
  switch (kind) {
    case StreamKind::kLfsr: c.stream_len = 128; break;
    case StreamKind::kTrng:
      c.stream_len = 32;
      c.rng = sc::RngKind::kTrng;
      break;
    case StreamKind::kProgressive:
      c.stream_len = 64;
      c.progressive = true;
      break;
  }
  return c;
}

// Two forward passes (TRNG draws fresh streams per pass) and one backward
// through the second pass's OR attenuation, under every fault set, folded
// into one fingerprint.
template <typename MakeLayer>
std::uint64_t fingerprint(MakeLayer make, const Tensor& x) {
  std::uint64_t h = 0;
  for (const char* spec : kFaultSets) {
    const auto faults = install_faults(spec);
    auto layer = make();
    h = fold(h, layer->forward(x, true));
    const Tensor y = layer->forward(x, true);
    h = fold(h, y);
    h = fold(h, layer->backward(random_acts(y.shape(), 31, -1.0f, 1.0f)));
  }
  return h;
}

constexpr std::array<AccumMode, 5> kModes = {
    AccumMode::kOr, AccumMode::kPbw, AccumMode::kPbhw, AccumMode::kFxp,
    AccumMode::kApc};
constexpr std::array<StreamKind, 3> kKinds = {
    StreamKind::kLfsr, StreamKind::kTrng, StreamKind::kProgressive};
constexpr std::array<const char*, 3> kKindNames = {"lfsr", "trng", "prog"};

// Golden fingerprints, rows in kModes order, columns in kKinds order.
constexpr std::uint64_t kConvGolden[5][3] = {
    {0xdfdbc84560d06079ull, 0x5bf61cd75b4eb43full, 0xe53b4b5dcd310dbdull},
    {0xade2696c0450bf87ull, 0xf17b7f2d524f4d88ull, 0xfcf1164530424e57ull},
    {0x2223e3330f1b9437ull, 0xba8985583ea3b6c3ull, 0x6326d8ef603a54d1ull},
    {0xb122ec42dd8141c9ull, 0x0030358d7eb9f7afull, 0xb470e255f0839db3ull},
    {0xb65e9e7bb2f543a7ull, 0x27e028204e943cb1ull, 0x2d535c7ff694fc19ull},
};
constexpr std::uint64_t kLinearGolden[5][3] = {
    {0xf59b6f86ef6c472bull, 0x56d2f01e5adb3f37ull, 0xa05f6298b9e6d6bcull},
    {0x53832be3695dfbdfull, 0x2d4e6b1b2256887cull, 0x6f2fcb08e3f89f70ull},
    {0x53832be3695dfbdfull, 0x2d4e6b1b2256887cull, 0x6f2fcb08e3f89f70ull},
    {0x17dd7c9757e9d40eull, 0x5f4be34d3b4430deull, 0x855c03431dd44ae3ull},
    {0xf4c2a23ea406357aull, 0x1db2c44bfcf1337aull, 0x5714a69183b5349full},
};

void expect_golden(const char* layer, std::size_t m, std::size_t k,
                   std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << layer << " " << to_string(kModes[m]) << "/"
                       << kKindNames[k] << ": got 0x" << std::hex << got;
}

TEST(ScConv2d, GoldenFingerprintsAcrossModesStreamsAndFaults) {
  // Padded 3x3 windows: edge outputs see fewer taps than PBW/PBHW groups.
  const Tensor x = random_acts({2, 3, 5, 5}, 33);
  for (std::size_t m = 0; m < kModes.size(); ++m)
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const std::uint64_t got = fingerprint(
          [&] {
            std::mt19937 rng(35);
            return std::make_unique<ScConv2d>(
                3, 4, 3, 1, 1, rng, pinned_cfg(kModes[m], kKinds[k]));
          },
          x);
      expect_golden("conv", m, k, got, kConvGolden[m][k]);
    }
}

TEST(ScLinear, GoldenFingerprintsAcrossModesStreamsAndFaults) {
  // 37 inputs in fc_group = 16 groups: the last group is short.
  const Tensor x = random_acts({2, 37}, 37);
  for (std::size_t m = 0; m < kModes.size(); ++m)
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const std::uint64_t got = fingerprint(
          [&] {
            std::mt19937 rng(39);
            return std::make_unique<ScLinear>(
                37, 5, rng, pinned_cfg(kModes[m], kKinds[k]));
          },
          x);
      expect_golden("linear", m, k, got, kLinearGolden[m][k]);
    }
}

TEST(ScLinear, MatchesOneByOneConvWhereGroupsAgree) {
  // A linear layer is a 1x1 convolution over a (in, 1, 1) map. Where the
  // two layers' OR-group maps agree (one group under OR; none under FXP and
  // APC), seeds, fault sites and TRNG pass specs must agree too, so the
  // outputs are byte-identical.
  const Tensor x = random_acts({2, 37}, 41);
  const Tensor x4 = x.reshaped({2, 37, 1, 1});
  for (const AccumMode mode :
       {AccumMode::kOr, AccumMode::kFxp, AccumMode::kApc})
    for (const int len : {32, 64, 128})
      for (const sc::RngKind rng_kind :
           {sc::RngKind::kLfsr, sc::RngKind::kTrng})
        for (const char* spec : kFaultSets) {
          SCOPED_TRACE(std::string(to_string(mode)) + " L=" +
                       std::to_string(len) + " " + sc::to_string(rng_kind) +
                       " faults='" + spec + "'");
          ScLayerConfig c = cfg(mode, len, sc::Sharing::kModerate, rng_kind);
          c.progressive = len == 64;
          const auto faults = install_faults(spec);
          std::mt19937 rng_a(43), rng_b(43);
          ScLinear lin(37, 5, rng_a, c);
          ScConv2d conv(37, 5, 1, 1, 0, rng_b, c);
          lin.bias().value.fill(0.0f);
          for (std::size_t i = 0; i < lin.weight().value.size(); ++i)
            conv.weight().value[i] = lin.weight().value[i];
          for (int pass = 0; pass < 2; ++pass) {
            const Tensor yl = lin.forward(x, false);
            const Tensor yc = conv.forward(x4, false);
            ASSERT_EQ(yl.size(), yc.size());
            for (std::size_t i = 0; i < yl.size(); ++i)
              ASSERT_EQ(std::bit_cast<std::uint32_t>(yl[i]),
                        std::bit_cast<std::uint32_t>(yc[i]))
                  << "pass " << pass << " output " << i;
          }
        }
}

}  // namespace
}  // namespace geo::nn
