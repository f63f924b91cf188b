// Randomized differential test of nn::build_activation_streams (ctest -L
// exec): every stream it writes must equal, word for word, the stream
// nn::generate_stream produces for that slot on the bit-serial tick path
// (no stream table), with the slot's own fault sites. Covers progressive on
// and off, L in {8, 16, 32, 64, 128, 256}, layers with fewer and with more
// slots than the allocator has activation generators (slot ids wrap at
// SeedAllocator::capacity()), inputs at 0, 1, below 0 and above 1, a slot
// list with gaps (unlisted slots must stay untouched) and 1 and 4 threads.
// Four legs: an LFSR without faults (the per-generator fast path unless
// GEO_STREAM_TABLE=0), a TRNG re-seeded per pass, a zero-rate fault model
// and an SRAM + stream-flip fault model (all three on the per-slot path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "nn/sc_layers.hpp"
#include "sc/stream_table.hpp"

namespace geo {
namespace {

using fault::FaultConfig;
using fault::FaultModel;
using Site = fault::FaultModel::Site;

enum class Leg { kLfsr, kTrngPass, kZeroRateFaults, kSramStreamFaults };

const char* to_string(Leg leg) {
  switch (leg) {
    case Leg::kLfsr: return "lfsr";
    case Leg::kTrngPass: return "trng_pass";
    case Leg::kZeroRateFaults: return "zero_rate_faults";
    case Leg::kSramStreamFaults: return "sram_stream_faults";
  }
  return "?";
}

FaultConfig fault_config(Leg leg, std::uint64_t seed) {
  FaultConfig c;
  c.rng_seed = seed;
  if (leg == Leg::kSramStreamFaults) {
    c.sram_error_rate = 3e-2;
    c.sram_burst = 2;
    c.stream_flip_rate = 2e-2;
  }
  return c;
}

constexpr std::uint64_t kCanary = 0xA5A5A5A5A5A5A5A5ull;

// The nn layers' per-pass TRNG re-seed (equal base seeds stay equal).
sc::SeedSpec trng_pass_spec(sc::SeedSpec spec, std::uint64_t pass) {
  spec.seed = static_cast<std::uint32_t>(
      core::mix64(spec.seed ^ (pass * 0xD1B54A32D192ED03ull)) | 1u);
  return spec;
}

// One slot at a time through generate_stream on the tick path.
std::vector<std::uint64_t> reference_bank(
    const std::vector<float>& input, const std::vector<std::uint32_t>& slots,
    const nn::ScLayerConfig& cfg, const sc::SeedAllocator& alloc,
    FaultModel* fm, std::optional<std::uint64_t> pass) {
  const auto L = static_cast<std::size_t>(cfg.stream_len);
  const std::size_t wpl = (L + 63) / 64;
  std::vector<std::uint64_t> bank(input.size() * wpl, kCanary);
  for (const std::uint32_t i : slots) {
    std::uint32_t q = nn::quantize_unsigned(
        std::clamp(input[i], 0.0f, 1.0f), cfg.value_bits);
    if (fm != nullptr) q = fm->sram_read(q, cfg.value_bits, Site::kActSram, i);
    sc::SeedSpec spec = alloc.activation(i);
    if (pass) spec = trng_pass_spec(spec, *pass);
    nn::generate_stream(&bank[i * wpl], wpl, L, cfg, spec, q, fm,
                        Site::kActStream, i, /*use_table=*/false);
  }
  return bank;
}

class ActivationStreams : public ::testing::TestWithParam<Leg> {};

TEST_P(ActivationStreams, MatchesPerSlotReference) {
  const Leg leg = GetParam();
  const bool use_table = sc::stream_table_enabled();
  std::mt19937 rng(9100u + static_cast<unsigned>(leg));
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  static constexpr float kEdges[] = {0.0f, 1.0f, -0.25f, 1.75f, -0.0f};
  std::int64_t faults = 0;
  int wrapped = 0, unwrapped = 0;
  for (const bool progressive : {false, true})
    for (const int L : {8, 16, 32, 64, 128, 256}) {
      nn::ScLayerConfig cfg;
      cfg.rng = leg == Leg::kTrngPass ? sc::RngKind::kTrng
                                      : sc::RngKind::kLfsr;
      cfg.sharing = sc::Sharing::kModerate;
      cfg.stream_len = L;
      cfg.progressive = progressive;
      cfg.layer_salt = rng() % (1u << 20);
      const sc::SeedAllocator alloc(cfg.sharing, cfg.lfsr_bits(), {},
                                    cfg.layer_salt);
      const std::size_t cap = alloc.capacity();
      // Fewer slots than generators, and enough to wrap past them twice.
      for (const std::size_t count : {cap / 2 + 1, 2 * cap + 3}) {
        (count > cap ? wrapped : unwrapped) += 1;
        std::vector<float> input(count);
        for (auto& a : input)
          a = rng() % 4 == 0 ? kEdges[rng() % 5] : adist(rng);
        // Every slot, and every slot but a few (their words stay as set).
        std::vector<std::uint32_t> all(count), gaps;
        for (std::uint32_t i = 0; i < count; ++i) {
          all[i] = i;
          if (i % 3 != 1) gaps.push_back(i);
        }
        const std::uint64_t fault_seed = rng();
        const std::optional<std::uint64_t> pass =
            leg == Leg::kTrngPass ? std::optional<std::uint64_t>(rng() % 9)
                                  : std::nullopt;
        for (const auto* slots : {&all, &gaps})
          for (const int threads : {1, 4}) {
            SCOPED_TRACE("progressive=" + std::to_string(progressive) +
                         " L=" + std::to_string(L) + " slots=" +
                         std::to_string(count) + " listed=" +
                         std::to_string(slots->size()) +
                         " threads=" + std::to_string(threads));
            exec::ScopedThreads scoped(threads);
            std::optional<FaultModel> fm_got, fm_want;
            if (leg == Leg::kZeroRateFaults ||
                leg == Leg::kSramStreamFaults) {
              fm_got.emplace(fault_config(leg, fault_seed));
              fm_want.emplace(fault_config(leg, fault_seed));
            }
            FaultModel* const fm = fm_got ? &*fm_got : nullptr;
            const nn::GeneratorTables tables = nn::resolve_activation_tables(
                cfg, alloc, count, fm, use_table);
            std::vector<std::uint64_t> got(
                count * static_cast<std::size_t>((L + 63) / 64), kCanary);
            nn::build_activation_streams(got.data(), input, *slots, cfg,
                                         alloc, tables, fm, use_table, pass);
            const std::vector<std::uint64_t> want = reference_bank(
                input, *slots, cfg, alloc, fm_want ? &*fm_want : nullptr,
                pass);
            const auto diff =
                std::mismatch(got.begin(), got.end(), want.begin());
            ASSERT_TRUE(diff.first == got.end())
                << "first differing word " << (diff.first - got.begin());

            // The fast path runs exactly when nothing forces per-slot
            // streams, and resolves one table per generator the layer
            // uses, the plan only when progressive.
            if (leg == Leg::kLfsr && use_table) {
              EXPECT_EQ(tables.tables.size(), std::min(count, cap));
              EXPECT_EQ(tables.plan.has_value(), progressive);
            } else {
              EXPECT_TRUE(tables.tables.empty());
            }
            if (fm_got) {
              const fault::FaultStats& st = fm_got->stats();
              faults += st.sram_words_corrupted + st.stream_bits_flipped;
            }
          }
      }
    }
  EXPECT_GT(wrapped, 0);
  EXPECT_GT(unwrapped, 0);
  // The faulted leg really injected faults into the streams it compared.
  if (leg == Leg::kSramStreamFaults) {
    EXPECT_GT(faults, 0);
  }
}

// Slot i draws on generator i % capacity, whose seed activation_spec names:
// activation() is built on exactly these two.
TEST(ActivationIds, SlotIdsWrapAtCapacity) {
  const sc::SeedAllocator alloc(sc::Sharing::kModerate, 5, {}, 12345);
  const std::size_t cap = alloc.capacity();
  ASSERT_GT(cap, 0u);
  for (std::size_t i = 0; i < 3 * cap; i += 7) {
    EXPECT_EQ(alloc.activation_id(i), i % cap);
    const sc::SeedSpec a = alloc.activation(i);
    const sc::SeedSpec b = alloc.activation_spec(i % cap);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.taps, b.taps);
    EXPECT_EQ(a.bits, b.bits);
  }
  // Distinct ids name distinct generators while the space lasts.
  const sc::SeedSpec first = alloc.activation_spec(0);
  const sc::SeedSpec second = alloc.activation_spec(1);
  EXPECT_FALSE(first.seed == second.seed && first.taps == second.taps);
}

INSTANTIATE_TEST_SUITE_P(Legs, ActivationStreams,
                         ::testing::Values(Leg::kLfsr, Leg::kTrngPass,
                                           Leg::kZeroRateFaults,
                                           Leg::kSramStreamFaults),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace geo
