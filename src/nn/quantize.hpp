// Fixed-point quantization helpers (the Eyeriss baselines and the SC value
// domain both quantize to n-bit fixed point).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace geo::nn {

// Symmetric signed quantization of v in [-range, range] to `bits` bits:
// round(v / range * 2^(bits-1)) clamped to [-(2^(bits-1)), 2^(bits-1)-1].
std::int32_t quantize_signed(float v, unsigned bits, float range = 1.0f);

// The float value a quantized code represents.
float dequantize_signed(std::int32_t code, unsigned bits, float range = 1.0f);

// Unsigned quantization of v in [0, range] to `bits` bits (1..24):
// round(v / range * 2^bits), rounding halves away from zero, clamped to
// [0, 2^bits - 1]. NaN and v <= 0 give 0, v >= range gives 2^bits - 1. It
// runs once per activation slot, weight and BN output, so it is inline and
// needs no libm: below the top code, v * 2^bits is truncated and its
// remainder, exact in float, is compared with 0.5.
inline std::uint32_t quantize_unsigned(float v, unsigned bits,
                                       float range = 1.0f) {
  const float s = v / range * static_cast<float>(1u << bits);
  if (!(s > 0.0f)) return 0;  // also NaN
  const std::uint32_t max = (1u << bits) - 1u;
  if (s >= static_cast<float>(max)) return max;
  const auto t = static_cast<std::uint32_t>(s);
  return t + (s - static_cast<float>(t) >= 0.5f ? 1u : 0u);
}
float dequantize_unsigned(std::uint32_t code, unsigned bits,
                          float range = 1.0f);

// Fake-quantization: quantize-then-dequantize every element (straight-through
// training for the fixed-point baselines). Values are clamped to
// [-range, range] (signed) or [0, range] (unsigned).
Tensor fake_quantize_signed(const Tensor& t, unsigned bits,
                            float range = 1.0f);
Tensor fake_quantize_unsigned(const Tensor& t, unsigned bits,
                              float range = 1.0f);

}  // namespace geo::nn
