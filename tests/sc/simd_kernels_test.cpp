// Backend parity for the sc::simd kernels (ctest -L simd).
//
// The bit-exactness contract: every backend (scalar / AVX2 / NEON) returns
// identical results for identical inputs. These tests pin that on
// adversarial word counts — empty, single-word, one short of the vector
// width, the width itself, one past it, one past the deferred-accumulate
// block boundary — against an independent reference computed with plain
// std::popcount loops.
#include "sc/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "telemetry/journal.hpp"

namespace geo::sc::simd {
namespace {

// One short of / exactly / one past the AVX2 width (4 words) and the
// deferred-SAD block (31 * 4 words), plus an odd large size.
constexpr std::size_t kSizes[] = {0,  1,  2,   3,   4,   5,   7,  8,
                                  31, 32, 33,  63,  64,  123, 124, 125,
                                  128, 257, 1000};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng();
  return w;
}

// The backends worth testing on this machine: scalar always, plus whatever
// detect_best() resolves to (requesting an unsupported backend through
// ScopedSimdBackend falls back to scalar, so the list never lies).
std::vector<Backend> backends_under_test() {
  std::vector<Backend> b{Backend::kScalar};
  if (detect_best() != Backend::kScalar) b.push_back(detect_best());
  return b;
}

TEST(SimdKernels, ReductionParityAcrossBackends) {
  for (const std::size_t n : kSizes) {
    const auto a = random_words(n, 0x9e3779b97f4a7c15ull + n);
    const auto p = random_words(n, 0xbf58476d1ce4e5b9ull + n);

    // Independent scalar reference.
    std::uint64_t ref_pop = 0, ref_and = 0, ref_or = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ref_pop += static_cast<std::uint64_t>(std::popcount(a[i]));
      ref_and += static_cast<std::uint64_t>(std::popcount(a[i] & p[i]));
      ref_or += static_cast<std::uint64_t>(std::popcount(a[i] | p[i]));
    }

    for (const Backend b : backends_under_test()) {
      ScopedSimdBackend scope(b);
      ASSERT_EQ(active(), b);
      EXPECT_EQ(popcount_words(a.data(), n), ref_pop)
          << to_string(b) << " n=" << n;
      EXPECT_EQ(and_popcount(a.data(), p.data(), n), ref_and)
          << to_string(b) << " n=" << n;
      EXPECT_EQ(or_popcount(a.data(), p.data(), n), ref_or)
          << to_string(b) << " n=" << n;
    }
  }
}

TEST(SimdKernels, BlockOpParityAcrossBackends) {
  for (const std::size_t n : kSizes) {
    const auto base = random_words(n, 17 + n);
    const auto src = random_words(n, 31 + n);

    std::vector<std::uint64_t> ref_and(n), ref_or(n), ref_xor(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref_and[i] = base[i] & src[i];
      ref_or[i] = base[i] | src[i];
      ref_xor[i] = base[i] ^ src[i];
    }

    for (const Backend b : backends_under_test()) {
      ScopedSimdBackend scope(b);
      auto d1 = base, d2 = base, d3 = base;
      and_into(d1.data(), src.data(), n);
      or_into(d2.data(), src.data(), n);
      xor_into(d3.data(), src.data(), n);
      EXPECT_EQ(d1, ref_and) << to_string(b) << " n=" << n;
      EXPECT_EQ(d2, ref_or) << to_string(b) << " n=" << n;
      EXPECT_EQ(d3, ref_xor) << to_string(b) << " n=" << n;
    }
  }
}

// packed_mac reference, written slot-first: extract each window's slot from
// every word, then OR per lane and count — independent of the kernels'
// whole-word OR and per-byte folding.
std::vector<std::int32_t> packed_mac_reference(
    const std::vector<std::uint64_t>& row, std::size_t lanes,
    const std::vector<std::uint64_t>& wp,
    const std::vector<std::uint64_t>& wn, std::size_t stride,
    std::size_t channels, unsigned slot_bits) {
  const unsigned slots = 64 / slot_bits;
  const std::uint64_t mask =
      slot_bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << slot_bits) - 1;
  std::vector<std::int32_t> out(channels * slots, 0);
  for (std::size_t c = 0; c < channels; ++c)
    for (unsigned s = 0; s < slots; ++s)
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        std::uint64_t pos = 0, neg = 0;
        for (std::size_t j = lane; j < row.size(); j += lanes) {
          const std::uint64_t a = (row[j] >> (s * slot_bits)) & mask;
          pos |= a & ((wp[j * stride + c] >> (s * slot_bits)) & mask);
          neg |= a & ((wn[j * stride + c] >> (s * slot_bits)) & mask);
        }
        out[c * slots + s] += std::popcount(pos) - std::popcount(neg);
      }
  return out;
}

// Adversarial packed_mac shapes: every slot width, channel counts around
// the vector widths (2 on NEON, 4 on AVX2) so the scalar tail runs, lane
// counts around the 31-lane per-byte fold, and dense all-ones words that
// drive every byte count to its maximum before a fold.
TEST(SimdKernels, PackedMacParityAcrossBackends) {
  const std::size_t row_sizes[] = {1, 2, 3, 5, 31, 32, 33, 64, 125, 200};
  const std::size_t channel_counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13};
  std::mt19937_64 rng(0x5eed);
  for (const unsigned slot_bits : {8u, 16u, 32u, 64u}) {
    for (const std::size_t n : row_sizes) {
      for (std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{31},
                                std::size_t{32}, std::size_t{33}, n}) {
        if (lanes > n) continue;
        for (const std::size_t channels : channel_counts) {
          for (const bool dense : {false, true}) {
            const std::size_t stride = channels + 3;
            std::vector<std::uint64_t> row(n), wp(n * stride), wn(n * stride);
            for (auto* v : {&row, &wp, &wn})
              for (auto& x : *v) x = dense ? ~std::uint64_t{0} : rng();
            if (dense)  // keep neg lighter so pos − neg stays nonzero
              for (auto& x : wn) x &= 0x0f0f0f0f0f0f0f0full;
            const std::vector<std::int32_t> ref = packed_mac_reference(
                row, lanes, wp, wn, stride, channels, slot_bits);
            for (const Backend b : backends_under_test()) {
              ScopedSimdBackend scope(b);
              std::vector<std::int32_t> out(ref.size() + 1, -7);
              packed_mac(row.data(), n, lanes, wp.data(), wn.data(), stride,
                         channels, slot_bits, out.data());
              EXPECT_EQ(out.back(), -7) << "wrote past channels * slots";
              out.pop_back();
              EXPECT_EQ(out, ref)
                  << to_string(b) << " slot_bits=" << slot_bits << " n=" << n
                  << " lanes=" << lanes << " channels=" << channels
                  << " dense=" << dense;
            }
          }
        }
      }
    }
  }
}

TEST(SimdBackend, DetectBestIsExecutable) {
  // Whatever auto resolves to must actually run (a crash here would mean
  // the CPUID gate and the kernel ISA disagree).
  const Backend best = detect_best();
  ScopedSimdBackend scope(best);
  EXPECT_EQ(active(), best);
  const auto w = random_words(64, 7);
  std::uint64_t ref = 0;
  for (const auto x : w) ref += static_cast<std::uint64_t>(std::popcount(x));
  EXPECT_EQ(popcount_words(w.data(), w.size()), ref);
}

TEST(SimdBackend, ScopedOverrideRestoresPrevious) {
  const Backend before = active();
  {
    ScopedSimdBackend scope(Backend::kScalar);
    EXPECT_EQ(active(), Backend::kScalar);
  }
  EXPECT_EQ(active(), before);
}

TEST(SimdBackend, UnsupportedRequestFallsBackToScalar) {
#if defined(__x86_64__) || defined(_M_X64)
  const Backend impossible = Backend::kNeon;
#else
  const Backend impossible = Backend::kAvx2;
#endif
  ScopedSimdBackend scope(impossible);
  EXPECT_EQ(active(), Backend::kScalar);
}

// GEO_SIMD fails closed like every other knob: an unknown value runs the
// scalar backend and leaves one `config.invalid` entry. The backend is
// resolved once per process, so the check runs in a fresh one (a
// threadsafe death test re-executes the binary).
TEST(SimdBackendDeathTest, UnknownValueFallsClosedToScalar) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_simd_knob.jsonl")
          .string();
  EXPECT_EXIT(
      {
        ::setenv("GEO_SIMD", "banana", 1);
        auto& journal = telemetry::Journal::instance();
        journal.disable();
        journal.enable(path, 64);
        const bool scalar = active() == Backend::kScalar;
        int entries = 0;
        for (const telemetry::JournalEntry& e : journal.snapshot())
          entries += e.kind == "config.invalid" && e.label == "GEO_SIMD";
        journal.disable();
        std::_Exit(scalar && entries == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "GEO_SIMD='banana'.*scalar backend");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace geo::sc::simd
