// Portable SIMD layer for the packed-bitstream hot paths.
//
// Every SC execution consumer — the machine's MAC inner loop, sc::ops,
// the parallel counters, and the correlation statistics — reduces to a
// handful of word-parallel kernels over packed 64-bit stream words:
// AND/OR popcount reductions, OR/XOR/AND block ops, and the machine's
// channel-blocked, window-packed MAC. This header is the one dispatch point for
// those kernels: an AVX2 backend (x86-64), a NEON backend (aarch64), and a
// scalar fallback that is the reference implementation everywhere else.
//
// Bit-exactness contract: every backend returns *identical* results for
// identical inputs — the kernels are pure integer bit arithmetic, so there
// is nothing to round. The simd test suite (ctest -L simd) asserts kernel
// parity across backends on adversarial sizes and that whole conv runs are
// byte-identical under every GEO_SIMD setting.
//
// Tail handling: kernels take an explicit word count `n` and process the
// trailing `n % lanes` words through the scalar reference path, so callers
// never pad. Stream tails beyond the logical bit length are kept zero by
// Bitstream::mask_tail(), which keeps popcount-style reductions exact.
//
// Knob (see docs/SIMD.md):
//   GEO_SIMD = auto|avx2|neon|scalar   backend selection (default auto).
//   Sampled once per process on first use (the resolved table pointer sits
//   on every hot path). A malformed value, or a backend the CPU cannot
//   execute, is rejected through core::reject_knob (one stderr warning,
//   one `config.invalid` journal entry) and falls closed to the scalar
//   backend.
#pragma once

#include <cstddef>
#include <cstdint>

namespace geo::sc::simd {

enum class Backend { kScalar, kAvx2, kNeon };

const char* to_string(Backend backend) noexcept;

// The best backend this CPU can execute (compile-time ISA + runtime CPUID).
Backend detect_best() noexcept;

// The active backend: GEO_SIMD resolved against detect_best(), cached after
// the first call; ScopedSimdBackend overrides it for tests.
Backend active() noexcept;

// ---- reductions ----------------------------------------------------------

// popcount(w[0..n)).
std::uint64_t popcount_words(const std::uint64_t* w, std::size_t n) noexcept;

// popcount(a & b) over n words — the unipolar multiply-count.
std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept;

// popcount(a | b) over n words (the APC stage's OR-merge count).
std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) noexcept;

// ---- block ops -----------------------------------------------------------

void and_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept;
void or_into(std::uint64_t* dst, const std::uint64_t* src,
             std::size_t n) noexcept;
void xor_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept;

// ---- channel-blocked short-stream MAC -------------------------------------

// The machine's clean MAC: one gathered activation row against a block of
// output channels. `row` holds n words; output channel c's weight for row
// word j is wp[j * stride + c] (wn likewise), so consecutive channels sit
// side by side and one vector op covers several of them. Row word j feeds
// lane j % lanes, and each lane ORs its product words: the OR / PBW / PBHW
// accumulator groups. With lanes == n every product is its own lane, which
// is the FXP / APC counting MAC. Every 64-bit word packs 64 / slot_bits
// independent windows (slot_bits in {8, 16, 32, 64}), one per slot, so for
// c < channels and slot s:
//   out[c * slots + s] = Σ_lane popcount(slot s of OR_lane(row & wp))
//                      − Σ_lane popcount(slot s of OR_lane(row & wn)).
// Requires lanes >= 1 and stride >= channels.
void packed_mac(const std::uint64_t* row, std::size_t n, std::size_t lanes,
                const std::uint64_t* wp, const std::uint64_t* wn,
                std::size_t stride, std::size_t channels, unsigned slot_bits,
                std::int32_t* out) noexcept;

// ---- test hook -----------------------------------------------------------

// Forces a backend process-wide for the scope's lifetime (parity tests
// compare backends within one process). Requesting a backend the CPU cannot
// execute falls back to scalar, mirroring the env parse. Not thread-safe
// against concurrent kernel callers mid-swap; use from quiesced test code.
class ScopedSimdBackend {
 public:
  explicit ScopedSimdBackend(Backend backend);
  ~ScopedSimdBackend();
  ScopedSimdBackend(const ScopedSimdBackend&) = delete;
  ScopedSimdBackend& operator=(const ScopedSimdBackend&) = delete;

 private:
  Backend previous_;
};

}  // namespace geo::sc::simd
