// Randomized differential test of nn::build_weight_bank (ctest -L exec): the
// bank it builds must equal, word for word, a bank filled one weight at a
// time through nn::generate_stream on the bit-serial tick path (no stream
// table). Both layouts are checked: the machine's channel-blocked one, with
// short streams replicated into every window slot, and the nn layers'
// oc-major one. Covers sharing none / moderate / extreme, progressive on and
// off, L in {8, 16, 32, 64, 128, 256}, cout not a multiple of 4, weights at
// 0, -0, +-1 and beyond the clamp, and four legs: an LFSR without faults
// (the per-generator fast path unless GEO_STREAM_TABLE=0), a TRNG, a
// zero-rate fault model and an SRAM + stream-flip + seed-upset fault model
// (all three on the per-weight path).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

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

enum class Leg { kLfsr, kTrng, kZeroRateFaults, kSramStreamFaults };

const char* to_string(Leg leg) {
  switch (leg) {
    case Leg::kLfsr: return "lfsr";
    case Leg::kTrng: return "trng";
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
    c.seed_upset_rate = 0.1;
  }
  return c;
}

struct Layer {
  sc::KernelExtents ext;
  std::vector<float> weights;
  std::uint64_t salt = 0;
};

Layer random_layer(std::mt19937& rng) {
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Layer l;
  l.ext.cin = pick(1, 3);
  l.ext.kh = l.ext.kw = pick(1, 3);
  // Never a multiple of 4, so a channel block ends part-filled.
  do {
    l.ext.cout = pick(1, 11);
  } while (l.ext.cout % 4 == 0);
  static constexpr float kEdges[] = {0.0f, -0.0f, 1.0f, -1.0f, 1.5f, -2.0f};
  std::uniform_real_distribution<float> wdist(-1.0f, 1.0f);
  l.weights.resize(static_cast<std::size_t>(l.ext.cout) * l.ext.cin *
                   l.ext.kh * l.ext.kw);
  for (auto& w : l.weights)
    w = pick(0, 3) == 0 ? kEdges[pick(0, 5)] : wdist(rng);
  l.salt = static_cast<std::uint64_t>(pick(0, 1 << 20));
  return l;
}

// The machine's layout packs pack = 64 / slot_bits windows per word at
// L <= 32; the nn layers' layout is oc-major with one stream per word run.
nn::WeightBankLayout layout_for(bool machine, const sc::KernelExtents& ext,
                                int L) {
  const std::size_t wpl = static_cast<std::size_t>((L + 63) / 64);
  const auto cout = static_cast<std::size_t>(ext.cout);
  const auto taps = static_cast<std::size_t>(ext.cin * ext.kh * ext.kw);
  if (!machine)
    return {.oc_stride = taps * wpl, .tap_stride = wpl, .word_stride = 1};
  nn::WeightBankLayout lay{
      .oc_stride = 1, .tap_stride = wpl * cout, .word_stride = cout};
  if (L <= 32) {
    lay.slot_bits = std::max(8u, std::bit_ceil(static_cast<unsigned>(L)));
    lay.pack = static_cast<int>(64 / lay.slot_bits);
  }
  return lay;
}

struct Banks {
  std::vector<std::uint64_t> pos, neg;
};

// One weight at a time through generate_stream on the tick path, with the
// weight's own fault sites, placed by the layout.
Banks reference_bank(const Layer& l, const nn::ScLayerConfig& cfg,
                     const sc::SeedAllocator& alloc,
                     const nn::WeightBankLayout& lay, FaultModel* fm) {
  const auto L = static_cast<std::size_t>(cfg.stream_len);
  const std::size_t wpl = (L + 63) / 64;
  const int taps = l.ext.cin * l.ext.kh * l.ext.kw;
  Banks b{std::vector<std::uint64_t>(l.weights.size() * wpl, 0),
          std::vector<std::uint64_t>(l.weights.size() * wpl, 0)};
  std::vector<std::uint64_t> stream(wpl);
  for (int oc = 0; oc < l.ext.cout; ++oc)
    for (int t = 0; t < taps; ++t) {
      const std::size_t idx = static_cast<std::size_t>(oc) * taps + t;
      const float w = std::clamp(l.weights[idx], -1.0f, 1.0f);
      std::uint32_t q = nn::quantize_unsigned(std::abs(w), cfg.value_bits);
      if (fm != nullptr)
        q = fm->sram_read(q, cfg.value_bits, Site::kWeightSram, idx);
      const int kx = t % l.ext.kw, ky = t / l.ext.kw % l.ext.kh;
      const int ic = t / (l.ext.kw * l.ext.kh);
      nn::generate_stream(stream.data(), wpl, L, cfg,
                          alloc.weight({oc, ic, ky, kx}), q, fm,
                          Site::kWeightStream, idx, /*use_table=*/false);
      std::vector<std::uint64_t>& bank = w >= 0.0f ? b.pos : b.neg;
      for (std::size_t k = 0; k < wpl; ++k) {
        std::uint64_t word = 0;
        for (int s = 0; s < lay.pack; ++s)
          word |= stream[k] << (static_cast<unsigned>(s) * lay.slot_bits);
        bank[static_cast<std::size_t>(oc) * lay.oc_stride +
             static_cast<std::size_t>(t) * lay.tap_stride +
             k * lay.word_stride] = word;
      }
    }
  return b;
}

// Leaves freed heap memory of `words` words filled with a nonzero pattern,
// so a bank word the builder forgets to write is unlikely to read as zero.
void dirty_heap(std::size_t words) {
  std::vector<std::uint64_t> junk(words, 0xA5A5A5A5A5A5A5A5ull);
  volatile std::uint64_t sink = junk[words / 2];
  (void)sink;
}

class WeightBank : public ::testing::TestWithParam<Leg> {};

TEST_P(WeightBank, MatchesPerWeightReference) {
  const Leg leg = GetParam();
  const bool use_table = sc::stream_table_enabled();
  std::mt19937 rng(7000u + static_cast<unsigned>(leg));
  std::int64_t faults = 0;
  for (const sc::Sharing sharing :
       {sc::Sharing::kNone, sc::Sharing::kModerate, sc::Sharing::kExtreme})
    for (const bool progressive : {false, true})
      for (const int L : {8, 16, 32, 64, 128, 256})
        for (int n = 0; n < 2; ++n) {
          const Layer l = random_layer(rng);
          nn::ScLayerConfig cfg;
          cfg.rng = leg == Leg::kTrng ? sc::RngKind::kTrng
                                      : sc::RngKind::kLfsr;
          cfg.sharing = sharing;
          cfg.stream_len = L;
          cfg.progressive = progressive;
          cfg.layer_salt = l.salt;
          const sc::SeedAllocator alloc(sharing, cfg.lfsr_bits(), l.ext,
                                        l.salt);
          const std::uint64_t fault_seed = rng();
          for (const bool machine : {true, false})
            for (const int threads : {1, 4}) {
              SCOPED_TRACE(std::string("sharing=") + sc::to_string(sharing) +
                           " progressive=" + std::to_string(progressive) +
                           " L=" + std::to_string(L) + " layer " +
                           std::to_string(n) + " cout=" +
                           std::to_string(l.ext.cout) + " layout=" +
                           (machine ? "machine" : "nn") +
                           " threads=" + std::to_string(threads));
              exec::ScopedThreads scoped(threads);
              const nn::WeightBankLayout lay = layout_for(machine, l.ext, L);
              std::optional<FaultModel> fm_got, fm_want;
              if (leg == Leg::kZeroRateFaults ||
                  leg == Leg::kSramStreamFaults) {
                fm_got.emplace(fault_config(leg, fault_seed));
                fm_want.emplace(fault_config(leg, fault_seed));
              }
              const std::size_t words =
                  l.weights.size() * static_cast<std::size_t>((L + 63) / 64);
              dirty_heap(words);
              const nn::WeightBank got = nn::build_weight_bank(
                  l.weights, l.ext, cfg, alloc, lay,
                  fm_got ? &*fm_got : nullptr, use_table);
              const Banks want = reference_bank(
                  l, cfg, alloc, lay, fm_want ? &*fm_want : nullptr);
              ASSERT_TRUE(std::equal(want.pos.begin(), want.pos.end(),
                                     got.pos.get()));
              ASSERT_TRUE(std::equal(want.neg.begin(), want.neg.end(),
                                     got.neg.get()));

              // The fast path runs exactly when nothing forces per-weight
              // streams, and looks each generator up once.
              if (leg == Leg::kLfsr && use_table) {
                EXPECT_EQ(got.generators, alloc.weight_ids());
                EXPECT_EQ(got.per_weight_streams, 0u);
              } else {
                EXPECT_EQ(got.generators, 0u);
                EXPECT_EQ(got.per_weight_streams, l.weights.size());
              }
              if (fm_got) {
                const fault::FaultStats& st = fm_got->stats();
                faults += st.sram_words_corrupted + st.stream_bits_flipped +
                          st.seed_upsets;
              }
            }
        }
  // The faulted leg really injected faults into the banks it compared.
  if (leg == Leg::kSramStreamFaults) {
    EXPECT_GT(faults, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Legs, WeightBank,
                         ::testing::Values(Leg::kLfsr, Leg::kTrng,
                                           Leg::kZeroRateFaults,
                                           Leg::kSramStreamFaults),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace geo
