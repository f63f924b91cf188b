#include "sc/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <string_view>

#include "core/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define GEO_SIMD_HAVE_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define GEO_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace geo::sc::simd {

namespace {

// Per-backend kernel table. One pointer load on the hot path; the scalar
// table is the reference implementation every other backend must match
// bit-for-bit (asserted by the simd test suite).
struct Ops {
  std::uint64_t (*popcount)(const std::uint64_t*, std::size_t);
  std::uint64_t (*and_popcount)(const std::uint64_t*, const std::uint64_t*,
                                std::size_t);
  std::uint64_t (*or_popcount)(const std::uint64_t*, const std::uint64_t*,
                               std::size_t);
  void (*and_into)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*or_into)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*xor_into)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*packed_mac)(const std::uint64_t*, std::size_t, std::size_t,
                     const std::uint64_t*, const std::uint64_t*, std::size_t,
                     std::size_t, unsigned, std::int32_t*);
};

// Low-slot mask of a packed word: slot s of w is (w >> s * bits) & mask.
constexpr std::uint64_t slot_mask(unsigned bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

// ------------------------------------------------------------ scalar

namespace scalar {

std::uint64_t popcount(const std::uint64_t* w, std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(w[i]));
  return c;
}

std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return c;
}

std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return c;
}

void and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void xor_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void packed_mac(const std::uint64_t* row, std::size_t n, std::size_t lanes,
                const std::uint64_t* wp, const std::uint64_t* wn,
                std::size_t stride, std::size_t channels, unsigned slot_bits,
                std::int32_t* out) {
  const unsigned slots = 64 / slot_bits;
  const std::uint64_t mask = slot_mask(slot_bits);
  for (std::size_t c = 0; c < channels; ++c) {
    std::int32_t* o = out + c * slots;
    std::fill(o, o + slots, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::uint64_t pos = 0, neg = 0;
      for (std::size_t j = lane; j < n; j += lanes) {
        pos |= row[j] & wp[j * stride + c];
        neg |= row[j] & wn[j * stride + c];
      }
      for (unsigned s = 0; s < slots; ++s) {
        o[s] += std::popcount((pos >> (s * slot_bits)) & mask);
        o[s] -= std::popcount((neg >> (s * slot_bits)) & mask);
      }
    }
  }
}

constexpr Ops kOps = {popcount, and_popcount, or_popcount, and_into,
                      or_into, xor_into, packed_mac};

}  // namespace scalar

// -------------------------------------------------------------- AVX2
//
// Compiled with per-function target attributes so the translation unit
// builds (and the binary runs) on any x86-64; the AVX2 paths are only ever
// *called* after a runtime CPUID check. Popcount uses the pshufb nibble
// lookup with deferred _mm256_sad_epu8: per-byte counts of one 256-bit
// vector are at most 8, so up to 31 vectors (124 words) accumulate in the
// 8-bit lanes before one SAD folds them into 64-bit partials.

#if GEO_SIMD_HAVE_X86

__attribute__((target("avx2"))) inline __m256i nibble_counts(
    __m256i v) noexcept {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2"))) inline std::uint64_t hsum_epi64(
    __m256i v) noexcept {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) inline __m256i loadu(
    const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

namespace avx2 {

__attribute__((target("avx2"))) std::uint64_t popcount(const std::uint64_t* w,
                                                       std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4)
      acc = _mm256_add_epi8(acc, nibble_counts(loadu(w + i)));
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::uint64_t out = hsum_epi64(total);
  for (; i < n; ++i) out += static_cast<std::uint64_t>(std::popcount(w[i]));
  return out;
}

__attribute__((target("avx2"))) std::uint64_t and_popcount(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4)
      acc = _mm256_add_epi8(
          acc, nibble_counts(_mm256_and_si256(loadu(a + i), loadu(b + i))));
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::uint64_t out = hsum_epi64(total);
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return out;
}

__attribute__((target("avx2"))) std::uint64_t or_popcount(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4)
      acc = _mm256_add_epi8(
          acc, nibble_counts(_mm256_or_si256(loadu(a + i), loadu(b + i))));
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::uint64_t out = hsum_epi64(total);
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return out;
}

__attribute__((target("avx2"))) void and_into(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void or_into(std::uint64_t* dst,
                                             const std::uint64_t* src,
                                             std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2"))) void xor_into(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] ^= src[i];
}

// Four output channels per vector, one per 64-bit lane; kVecs vectors (4
// or 8 channels) share each broadcast row word. A lane's OR result is
// nibble-counted into per-byte counts, which defer their fold for up to 31
// lanes (8 bits per byte per lane). The fold masks each window slot's
// bytes and _mm256_sad_epu8 sums them per 64-bit lane, giving one count
// per (channel, slot).
template <unsigned kVecs>
__attribute__((target("avx2"))) inline void packed_mac_block(
    const std::uint64_t* row, std::size_t n, std::size_t lanes,
    const std::uint64_t* wp, const std::uint64_t* wn, std::size_t stride,
    unsigned slot_bits, std::int32_t* out) {
  const unsigned slots = 64 / slot_bits;
  const __m256i zero = _mm256_setzero_si256();
  std::fill(out, out + 4 * kVecs * slots, 0);
  std::size_t lane = 0;
  while (lane < lanes) {
    const std::size_t block = std::min<std::size_t>(lanes - lane, 31);
    __m256i accp[kVecs], accn[kVecs];
    for (unsigned v = 0; v < kVecs; ++v) accp[v] = accn[v] = zero;
    for (std::size_t k = 0; k < block; ++k, ++lane) {
      __m256i pos[kVecs], neg[kVecs];
      for (unsigned v = 0; v < kVecs; ++v) pos[v] = neg[v] = zero;
      for (std::size_t j = lane; j < n; j += lanes) {
        const __m256i a = _mm256_set1_epi64x(static_cast<long long>(row[j]));
        for (unsigned v = 0; v < kVecs; ++v) {
          pos[v] = _mm256_or_si256(
              pos[v], _mm256_and_si256(a, loadu(wp + j * stride + 4 * v)));
          neg[v] = _mm256_or_si256(
              neg[v], _mm256_and_si256(a, loadu(wn + j * stride + 4 * v)));
        }
      }
      for (unsigned v = 0; v < kVecs; ++v) {
        accp[v] = _mm256_add_epi8(accp[v], nibble_counts(pos[v]));
        accn[v] = _mm256_add_epi8(accn[v], nibble_counts(neg[v]));
      }
    }
    for (unsigned s = 0; s < slots; ++s) {
      const __m256i mask = _mm256_set1_epi64x(
          static_cast<long long>(slot_mask(slot_bits) << (s * slot_bits)));
      for (unsigned v = 0; v < kVecs; ++v) {
        alignas(32) std::int64_t counts[4];
        _mm256_store_si256(
            reinterpret_cast<__m256i*>(counts),
            _mm256_sub_epi64(
                _mm256_sad_epu8(_mm256_and_si256(accp[v], mask), zero),
                _mm256_sad_epu8(_mm256_and_si256(accn[v], mask), zero)));
        for (std::size_t i = 0; i < 4; ++i)
          out[(4 * v + i) * slots + s] += static_cast<std::int32_t>(counts[i]);
      }
    }
  }
}

__attribute__((target("avx2"))) void packed_mac(
    const std::uint64_t* row, std::size_t n, std::size_t lanes,
    const std::uint64_t* wp, const std::uint64_t* wn, std::size_t stride,
    std::size_t channels, unsigned slot_bits, std::int32_t* out) {
  const std::size_t slots = 64 / slot_bits;
  std::size_t c = 0;
  for (; c + 8 <= channels; c += 8)
    packed_mac_block<2>(row, n, lanes, wp + c, wn + c, stride, slot_bits,
                        out + c * slots);
  for (; c + 4 <= channels; c += 4)
    packed_mac_block<1>(row, n, lanes, wp + c, wn + c, stride, slot_bits,
                        out + c * slots);
  scalar::packed_mac(row, n, lanes, wp + c, wn + c, stride, channels - c,
                     slot_bits, out + c * slots);
}

constexpr Ops kOps = {popcount, and_popcount, or_popcount, and_into,
                      or_into, xor_into, packed_mac};

}  // namespace avx2

#endif  // GEO_SIMD_HAVE_X86

// -------------------------------------------------------------- NEON
//
// aarch64 NEON is baseline, so no runtime detection or target attributes
// are needed: vcntq_u8 counts per byte, then a pairwise-widen chain folds
// into 64-bit lanes per vector (128-bit vectors, so the deferred-fold trick
// buys less; the simple chain keeps the kernel obviously exact).

#if GEO_SIMD_HAVE_NEON

namespace neon {

inline std::uint64_t fold_count(uint8x16_t bytes) noexcept {
  return vaddvq_u64(vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(bytes)))));
}

std::uint64_t popcount(const std::uint64_t* w, std::size_t n) {
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    out += fold_count(vreinterpretq_u8_u64(vld1q_u64(w + i)));
  for (; i < n; ++i) out += static_cast<std::uint64_t>(std::popcount(w[i]));
  return out;
}

std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    out += fold_count(
        vreinterpretq_u8_u64(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return out;
}

std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) {
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    out += fold_count(
        vreinterpretq_u8_u64(vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return out;
}

void and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  for (; i < n; ++i) dst[i] &= src[i];
}

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  for (; i < n; ++i) dst[i] |= src[i];
}

void xor_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  for (; i < n; ++i) dst[i] ^= src[i];
}

// Two output channels per vector; the AVX2 kernel's structure with
// vcntq_u8 per-byte counts and a pairwise-widen fold per window slot.
void packed_mac(const std::uint64_t* row, std::size_t n, std::size_t lanes,
                const std::uint64_t* wp, const std::uint64_t* wn,
                std::size_t stride, std::size_t channels, unsigned slot_bits,
                std::int32_t* out) {
  const unsigned slots = 64 / slot_bits;
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    std::int32_t* o = out + c * slots;
    std::fill(o, o + 2 * slots, 0);
    std::size_t lane = 0;
    while (lane < lanes) {
      const std::size_t block = std::min<std::size_t>(lanes - lane, 31);
      uint8x16_t accp = vdupq_n_u8(0), accn = vdupq_n_u8(0);
      for (std::size_t k = 0; k < block; ++k, ++lane) {
        uint64x2_t pos = vdupq_n_u64(0), neg = vdupq_n_u64(0);
        for (std::size_t j = lane; j < n; j += lanes) {
          const uint64x2_t a = vdupq_n_u64(row[j]);
          pos = vorrq_u64(pos, vandq_u64(a, vld1q_u64(wp + j * stride + c)));
          neg = vorrq_u64(neg, vandq_u64(a, vld1q_u64(wn + j * stride + c)));
        }
        accp = vaddq_u8(accp, vcntq_u8(vreinterpretq_u8_u64(pos)));
        accn = vaddq_u8(accn, vcntq_u8(vreinterpretq_u8_u64(neg)));
      }
      for (unsigned s = 0; s < slots; ++s) {
        const uint8x16_t mask = vreinterpretq_u8_u64(
            vdupq_n_u64(slot_mask(slot_bits) << (s * slot_bits)));
        const uint64x2_t p =
            vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vandq_u8(accp, mask))));
        const uint64x2_t q =
            vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vandq_u8(accn, mask))));
        const int64x2_t d =
            vsubq_s64(vreinterpretq_s64_u64(p), vreinterpretq_s64_u64(q));
        o[s] += static_cast<std::int32_t>(vgetq_lane_s64(d, 0));
        o[slots + s] += static_cast<std::int32_t>(vgetq_lane_s64(d, 1));
      }
    }
  }
  scalar::packed_mac(row, n, lanes, wp + c, wn + c, stride, channels - c,
                     slot_bits, out + c * slots);
}

constexpr Ops kOps = {popcount, and_popcount, or_popcount, and_into,
                      or_into, xor_into, packed_mac};

}  // namespace neon

#endif  // GEO_SIMD_HAVE_NEON

// ---------------------------------------------------------- dispatch

bool backend_supported(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if GEO_SIMD_HAVE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
#if GEO_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

const Ops* ops_for(Backend backend) noexcept {
  switch (backend) {
#if GEO_SIMD_HAVE_X86
    case Backend::kAvx2:
      return &avx2::kOps;
#endif
#if GEO_SIMD_HAVE_NEON
    case Backend::kNeon:
      return &neon::kOps;
#endif
    default:
      return &scalar::kOps;
  }
}

std::atomic<const Ops*> g_ops{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};

// GEO_SIMD -> backend, fail-closed: auto/unset picks the best supported
// backend; an explicit backend must be executable on this CPU; anything
// else is rejected through core::reject_knob and runs scalar — never a
// crash, never a silent downgrade.
Backend resolve_from_env() {
  const char* v = std::getenv("GEO_SIMD");
  const std::string_view s = v != nullptr ? v : "";
  if (s.empty() || s == "auto") return detect_best();
  if (s == "scalar") return Backend::kScalar;
  if (s == "avx2" || s == "neon") {
    const Backend want = s == "avx2" ? Backend::kAvx2 : Backend::kNeon;
    if (backend_supported(want)) return want;
    core::reject_knob("GEO_SIMD", v,
                      "names a backend this CPU cannot execute; using the "
                      "scalar backend");
    return Backend::kScalar;
  }
  core::reject_knob("GEO_SIMD", v,
                    "is not one of auto|avx2|neon|scalar; using the scalar "
                    "backend");
  return Backend::kScalar;
}

void set_backend(Backend backend) noexcept {
  g_backend.store(backend, std::memory_order_relaxed);
  g_ops.store(ops_for(backend), std::memory_order_release);
}

void resolve_once() {
  static const bool done = [] {
    set_backend(resolve_from_env());
    return true;
  }();
  (void)done;
}

inline const Ops& ops() noexcept {
  const Ops* o = g_ops.load(std::memory_order_acquire);
  if (o == nullptr) {
    resolve_once();
    o = g_ops.load(std::memory_order_acquire);
  }
  return *o;
}

}  // namespace

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "?";
}

Backend detect_best() noexcept {
#if GEO_SIMD_HAVE_X86
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
#if GEO_SIMD_HAVE_NEON
  return Backend::kNeon;
#endif
  return Backend::kScalar;
}

Backend active() noexcept {
  resolve_once();
  return g_backend.load(std::memory_order_relaxed);
}

std::uint64_t popcount_words(const std::uint64_t* w, std::size_t n) noexcept {
  return ops().popcount(w, n);
}

std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept {
  return ops().and_popcount(a, b, n);
}

std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) noexcept {
  return ops().or_popcount(a, b, n);
}

void and_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept {
  ops().and_into(dst, src, n);
}

void or_into(std::uint64_t* dst, const std::uint64_t* src,
             std::size_t n) noexcept {
  ops().or_into(dst, src, n);
}

void xor_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept {
  ops().xor_into(dst, src, n);
}

void packed_mac(const std::uint64_t* row, std::size_t n, std::size_t lanes,
                const std::uint64_t* wp, const std::uint64_t* wn,
                std::size_t stride, std::size_t channels, unsigned slot_bits,
                std::int32_t* out) noexcept {
  ops().packed_mac(row, n, lanes, wp, wn, stride, channels, slot_bits, out);
}

ScopedSimdBackend::ScopedSimdBackend(Backend backend) : previous_(active()) {
  set_backend(backend_supported(backend) ? backend : Backend::kScalar);
}

ScopedSimdBackend::~ScopedSimdBackend() { set_backend(previous_); }

}  // namespace geo::sc::simd
