#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>

namespace geo::nn {

std::int32_t quantize_signed(float v, unsigned bits, float range) {
  const float levels = static_cast<float>(1 << (bits - 1));
  const float q = std::round(v / range * levels);
  return static_cast<std::int32_t>(std::clamp(q, -levels, levels - 1.0f));
}

float dequantize_signed(std::int32_t code, unsigned bits, float range) {
  return static_cast<float>(code) /
         static_cast<float>(1 << (bits - 1)) * range;
}

float dequantize_unsigned(std::uint32_t code, unsigned bits, float range) {
  return static_cast<float>(code) / static_cast<float>(1u << bits) * range;
}

Tensor fake_quantize_signed(const Tensor& t, unsigned bits, float range) {
  Tensor out = t;
  for (auto& v : out.data())
    v = dequantize_signed(quantize_signed(v, bits, range), bits, range);
  return out;
}

Tensor fake_quantize_unsigned(const Tensor& t, unsigned bits, float range) {
  Tensor out = t;
  for (auto& v : out.data())
    v = dequantize_unsigned(quantize_unsigned(v, bits, range), bits, range);
  return out;
}

}  // namespace geo::nn
