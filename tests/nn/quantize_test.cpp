#include "nn/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace geo::nn {
namespace {

TEST(QuantizeSigned, Extremes) {
  EXPECT_EQ(quantize_signed(1.0f, 8), 127);  // clamped below +2^7
  EXPECT_EQ(quantize_signed(-1.0f, 8), -128);
  EXPECT_EQ(quantize_signed(0.0f, 8), 0);
  EXPECT_EQ(quantize_signed(10.0f, 8), 127);
  EXPECT_EQ(quantize_signed(-10.0f, 8), -128);
}

TEST(QuantizeSigned, FourBit) {
  EXPECT_EQ(quantize_signed(0.5f, 4), 4);
  EXPECT_EQ(quantize_signed(-0.5f, 4), -4);
  EXPECT_FLOAT_EQ(dequantize_signed(4, 4), 0.5f);
}

TEST(QuantizeSigned, RoundTripErrorBounded) {
  for (unsigned bits : {4u, 8u}) {
    const float step = 1.0f / static_cast<float>(1 << (bits - 1));
    const float max_code = 1.0f - step;  // symmetric quant: top code < +1
    for (float v = -0.99f; v < 0.99f; v += 0.07f) {
      const float r = dequantize_signed(quantize_signed(v, bits), bits);
      const float expected = std::min(v, max_code);
      EXPECT_NEAR(r, expected, step / 2 + 1e-6)
          << "bits=" << bits << " v=" << v;
    }
  }
}

TEST(QuantizeUnsigned, Basics) {
  EXPECT_EQ(quantize_unsigned(0.0f, 8), 0u);
  EXPECT_EQ(quantize_unsigned(1.0f, 8), 255u);
  EXPECT_EQ(quantize_unsigned(0.5f, 8), 128u);
  EXPECT_EQ(quantize_unsigned(-0.5f, 8), 0u);
  EXPECT_FLOAT_EQ(dequantize_unsigned(128, 8), 0.5f);
}

// The libm formula quantize_unsigned replaced: round(v / range * 2^bits),
// halves away from zero, clamped to [0, 2^bits - 1].
std::uint32_t libm_quantize_unsigned(float v, unsigned bits, float range) {
  const float levels = static_cast<float>(1u << bits);
  const float q = std::round(v / range * levels);
  return static_cast<std::uint32_t>(std::clamp(q, 0.0f, levels - 1.0f));
}

TEST(QuantizeUnsigned, MatchesLibmFormulaAroundEveryCodeBoundary) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  int checked = 0;
  for (const float range : {1.0f, 0.75f, 2.0f})
    for (unsigned bits = 1; bits <= 8; ++bits) {
      const float levels = static_cast<float>(1u << bits);
      // Every rounding boundary (c + 0.5) / 2^bits, from below 0 to above
      // the top code, plus 0 and range themselves.
      std::vector<float> centers{0.0f, range};
      for (int c = -1; c <= static_cast<int>(1u << bits); ++c)
        centers.push_back((static_cast<float>(c) + 0.5f) / levels * range);
      for (const float center : centers) {
        float v = center;
        for (int i = 0; i < 8; ++i) v = std::nextafter(v, -kInf);
        for (int i = -8; i <= 8; ++i, v = std::nextafter(v, kInf)) {
          ASSERT_EQ(quantize_unsigned(v, bits, range),
                    libm_quantize_unsigned(v, bits, range))
              << "bits=" << bits << " range=" << range << " v=" << v;
          ++checked;
        }
      }
    }
  EXPECT_GT(checked, 3 * 17 * 500);
}

TEST(QuantizeUnsigned, MatchesLibmFormulaOnRandomValues) {
  std::mt19937 rng(2024);
  std::uniform_real_distribution<float> dist(-0.5f, 1.5f);
  for (int i = 0; i < 1000000; ++i) {
    const float v = dist(rng);
    const unsigned bits = 1 + static_cast<unsigned>(i % 8);
    ASSERT_EQ(quantize_unsigned(v, bits), libm_quantize_unsigned(v, bits, 1.0f))
        << "bits=" << bits << " v=" << v;
  }
}

// NaN and values outside [0, range] clamp to a code instead of reaching an
// undefined float-to-integer conversion.
TEST(QuantizeUnsigned, NonFiniteAndOutOfRangeInputsClamp) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quantize_unsigned(std::numeric_limits<float>::quiet_NaN(), 8), 0u);
  EXPECT_EQ(quantize_unsigned(-std::numeric_limits<float>::quiet_NaN(), 8),
            0u);
  EXPECT_EQ(quantize_unsigned(kInf, 8), 255u);
  EXPECT_EQ(quantize_unsigned(-kInf, 8), 0u);
  EXPECT_EQ(quantize_unsigned(1e30f, 8), 255u);
  EXPECT_EQ(quantize_unsigned(-1e30f, 8), 0u);
  EXPECT_EQ(quantize_unsigned(-0.0f, 8), 0u);
  EXPECT_EQ(quantize_unsigned(std::numeric_limits<float>::denorm_min(), 8),
            0u);
  EXPECT_EQ(quantize_unsigned(1.0f, 1), 1u);
  EXPECT_EQ(quantize_unsigned(0.25f, 1), 1u);  // a half rounds up
}

TEST(FakeQuantize, PreservesShapeAndRange) {
  Tensor t({2, 3});
  t[0] = 0.33f;
  t[1] = -0.77f;
  t[2] = 2.0f;
  t[3] = -2.0f;
  const Tensor q = fake_quantize_signed(t, 4);
  EXPECT_EQ(q.shape(), t.shape());
  for (float v : q.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
  EXPECT_NEAR(q[0], 0.33f, 1.0f / 16);
}

TEST(FakeQuantize, FewerBitsMoreError) {
  Tensor t({64});
  std::mt19937 rng(4);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : t.data()) v = dist(rng);
  auto err = [&](unsigned bits) {
    const Tensor q = fake_quantize_signed(t, bits);
    double e = 0;
    for (std::size_t i = 0; i < t.size(); ++i)
      e += std::abs(q[i] - t[i]);
    return e;
  };
  EXPECT_GT(err(2), err(4));
  EXPECT_GT(err(4), err(8));
}

TEST(FakeQuantize, UnsignedClampsNegatives) {
  Tensor t({2});
  t[0] = -0.4f;
  t[1] = 0.6f;
  const Tensor q = fake_quantize_unsigned(t, 8);
  EXPECT_FLOAT_EQ(q[0], 0.0f);
  EXPECT_NEAR(q[1], 0.6f, 1.0f / 256);
}

}  // namespace
}  // namespace geo::nn
