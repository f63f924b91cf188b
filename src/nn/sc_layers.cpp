#include "nn/sc_layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "exec/thread_pool.hpp"
#include "nn/quantize.hpp"
#include "sc/progressive.hpp"
#include "sc/simd.hpp"
#include "sc/sng.hpp"
#include "sc/stream_table.hpp"

namespace geo::nn {

const char* to_string(AccumMode mode) noexcept {
  switch (mode) {
    case AccumMode::kOr: return "or";
    case AccumMode::kPbw: return "pbw";
    case AccumMode::kPbhw: return "pbhw";
    case AccumMode::kFxp: return "fxp";
    case AccumMode::kApc: return "apc";
  }
  return "?";
}

std::string ScModelConfig::key() const {
  switch (mode) {
    case Mode::kFloat: return "float";
    case Mode::kFixedPoint: return "fxp" + std::to_string(fp_bits);
    case Mode::kStochastic:
      return std::string("sc_") + sc::to_string(rng) + "_" +
             sc::to_string(sharing) + "_" + to_string(accum) + "_" +
             std::to_string(stream_len_pool) + "-" +
             std::to_string(stream_len) +
             (progressive ? "_prog" : "") + "_s" + std::to_string(seed);
  }
  return "?";
}

unsigned ScLayerConfig::lfsr_bits() const {
  unsigned n = 0;
  int l = stream_len;
  while (l > 1) {
    l >>= 1;
    ++n;
  }
  if ((1 << n) != stream_len)
    throw std::invalid_argument("ScLayerConfig: stream_len must be 2^n");
  return n;
}

ScLayerConfig ScLayerConfig::from_model(const ScModelConfig& model,
                                        int stream_len, int layer_index) {
  ScLayerConfig cfg;
  cfg.rng = model.rng;
  cfg.sharing = model.sharing;
  cfg.accum = model.accum;
  cfg.stream_len = stream_len;
  cfg.value_bits = model.value_bits;
  cfg.progressive = model.progressive;
  cfg.layer_salt = model.seed * 1000003ull + static_cast<std::uint64_t>(layer_index);
  cfg.fc_group = model.fc_group;
  return cfg;
}

namespace {

// For TRNGs, a fresh pass must see fresh randomness while preserving the
// sharing structure (equal base seeds stay equal). Deterministic sources
// ignore the pass counter.
sc::SeedSpec pass_spec(const ScLayerConfig& cfg, sc::SeedSpec spec,
                       std::uint64_t pass) {
  if (cfg.rng == sc::RngKind::kTrng)
    spec.seed = static_cast<std::uint32_t>(
        core::mix64(spec.seed ^ (pass * 0xD1B54A32D192ED03ull)) | 1u);
  return spec;
}

// The plain SNG's comparator value for magnitude q on an n-bit generator.
std::uint32_t plain_value(const ScLayerConfig& cfg, unsigned n,
                          std::uint32_t q) {
  return n >= cfg.value_bits ? q << (n - cfg.value_bits)
                             : q >> (cfg.value_bits - n);
}

sc::ProgressiveSchedule progressive_schedule(const ScLayerConfig& cfg,
                                             unsigned n) {
  sc::ProgressiveSchedule sched;
  sched.value_bits = cfg.value_bits;
  sched.lfsr_bits = n;
  return sched;
}

// The fast path of both stream builders: without a fault model, with a
// deterministic RNG and the stream table on, the tables of generators
// [0, ids), each looked up once; none when any of that fails.
template <typename SpecOf>
GeneratorTables resolve_tables(const ScLayerConfig& cfg, unsigned n,
                               std::size_t ids, SpecOf spec_of,
                               fault::FaultModel* fm, bool use_table) {
  GeneratorTables g;
  if (fm != nullptr || !use_table || cfg.rng == sc::RngKind::kTrng) return g;
  const std::size_t len = static_cast<std::size_t>(cfg.stream_len);
  auto& registry = sc::StreamTableRegistry::instance();
  g.tables.resize(ids);
  for (std::size_t id = 0; id < ids; ++id) {
    g.tables[id] = registry.acquire(cfg.rng, spec_of(id), len);
    if (g.tables[id] == nullptr) {
      g.tables.clear();
      return g;
    }
  }
  if (cfg.progressive) g.plan.emplace(progressive_schedule(cfg, n), len);
  return g;
}

// The stream of magnitude q (< 2^value_bits) from generator table `tab`:
// the table row itself, or a progressive composition written to `buf`.
const std::uint64_t* table_stream(const GeneratorTables& g,
                                  const sc::StreamTable& tab,
                                  const ScLayerConfig& cfg, unsigned n,
                                  std::uint32_t q, std::uint64_t* buf) {
  if (!g.plan) return tab.row(plain_value(cfg, n, q));
  std::fill(buf, buf + tab.wpl(), 0);
  g.plan->compose(buf, tab, q);
  return buf;
}

}  // namespace

void generate_stream(std::uint64_t* dst, std::size_t wpl, std::size_t length,
                     const ScLayerConfig& cfg, sc::SeedSpec spec,
                     std::uint32_t q, fault::FaultModel* fm,
                     fault::FaultModel::Site domain, std::uint64_t site,
                     bool use_table) {
  std::fill(dst, dst + wpl, 0);
  if (fm != nullptr) spec = fm->corrupt_seed(spec, site);
  if (q != 0) {
    const unsigned n = spec.bits;
    sc::StreamGenerator& gen = sc::StreamGenerator::local();
    if (cfg.progressive)
      gen.generate_progressive(dst, wpl, length, cfg.rng, spec,
                               progressive_schedule(cfg, n), q, use_table);
    else
      gen.generate(dst, wpl, length, cfg.rng, spec, plain_value(cfg, n, q),
                   use_table);
  }
  // A defective buffer cell flips bits even in an all-zero stream.
  if (fm != nullptr) fm->corrupt_stream(dst, length, domain, site);
}

WeightBank build_weight_bank(std::span<const float> weights,
                             const sc::KernelExtents& ext,
                             const ScLayerConfig& cfg,
                             const sc::SeedAllocator& alloc,
                             const WeightBankLayout& layout,
                             fault::FaultModel* fm, bool use_table,
                             std::optional<std::uint64_t> trng_pass) {
  const std::size_t len = static_cast<std::size_t>(cfg.stream_len);
  const std::size_t wpl = (len + 63) / 64;
  const unsigned n = alloc.bits();
  const int K = ext.cin * ext.kh * ext.kw;
  WeightBank bank;
  bank.pos = std::make_unique_for_overwrite<std::uint64_t[]>(weights.size() *
                                                             wpl);
  bank.neg = std::make_unique_for_overwrite<std::uint64_t[]>(weights.size() *
                                                             wpl);

  // Fast path: one table per generator, each stream a row of its table.
  const GeneratorTables gen = resolve_tables(
      cfg, n, alloc.weight_ids(),
      [&alloc](std::size_t id) { return alloc.weight_spec(id); }, fm,
      use_table);
  bank.generators = gen.tables.size();
  if (gen.tables.empty()) bank.per_weight_streams = weights.size();

  // Multiplying a stream word by `spread` copies it into every slot (no
  // carries: a packed stream fits one slot).
  std::uint64_t spread = 0;
  for (int s = 0; s < layout.pack; ++s)
    spread |= 1ull << (static_cast<unsigned>(s) * layout.slot_bits);

  // One iteration per row of the layout's outer dimension, so the stores
  // of a row stay close. Rows write disjoint words and every fault site is
  // touched once, so the fill is byte-identical at any thread count.
  const bool tap_major = layout.tap_stride > layout.oc_stride;
  exec::parallel_for(tap_major ? K : ext.cout, [&](std::int64_t o) {
    // Locals, not captures: the captures escape into parallel_for, so the
    // compiler would reload each of them after every call in the loop.
    const WeightBankLayout lay = layout;
    const std::size_t nw = wpl;
    const std::uint64_t copies = spread;
    const int taps = K, inner = tap_major ? ext.cout : K;
    const unsigned vb = cfg.value_bits;
    std::uint64_t* const pos = bank.pos.get();
    std::uint64_t* const neg = bank.neg.get();
    const sc::StreamTable* const* const table =
        gen.tables.empty() ? nullptr : gen.tables.data();
    thread_local std::vector<std::uint64_t> buf;
    buf.resize(nw);
    for (int i = 0; i < inner; ++i) {
      const int oc = tap_major ? i : static_cast<int>(o);
      const int t = tap_major ? static_cast<int>(o) : i;
      const std::size_t idx = static_cast<std::size_t>(oc) * taps + t;
      const float w = std::clamp(weights[idx], -1.0f, 1.0f);
      std::uint32_t q = quantize_unsigned(std::abs(w), vb);
      const std::uint64_t* stream = buf.data();
      if (table != nullptr) {
        stream = table_stream(gen, *table[alloc.weight_id(oc, t)], cfg, n, q,
                              buf.data());
      } else {
        using Site = fault::FaultModel::Site;
        if (fm != nullptr) q = fm->sram_read(q, vb, Site::kWeightSram, idx);
        sc::SeedSpec spec = alloc.weight(
            {oc, t / (ext.kh * ext.kw), t / ext.kw % ext.kh, t % ext.kw});
        if (trng_pass) spec = pass_spec(cfg, spec, *trng_pass);
        generate_stream(buf.data(), nw, len, cfg, spec, q, fm,
                        Site::kWeightStream, idx, use_table);
      }
      const std::size_t base = static_cast<std::size_t>(oc) * lay.oc_stride +
                               static_cast<std::size_t>(t) * lay.tap_stride;
      std::uint64_t* const mine = (w >= 0.0f ? pos : neg) + base;
      std::uint64_t* const other = (w >= 0.0f ? neg : pos) + base;
      for (std::size_t k = 0; k < nw; ++k) {
        mine[k * lay.word_stride] = stream[k] * copies;
        other[k * lay.word_stride] = 0;
      }
    }
  });
  return bank;
}

GeneratorTables resolve_activation_tables(const ScLayerConfig& cfg,
                                          const sc::SeedAllocator& alloc,
                                          std::size_t slots,
                                          fault::FaultModel* fm,
                                          bool use_table) {
  return resolve_tables(
      cfg, alloc.bits(), std::min(slots, alloc.capacity()),
      [&alloc](std::size_t id) { return alloc.activation_spec(id); }, fm,
      use_table);
}

void build_activation_streams(std::uint64_t* bank,
                              std::span<const float> input,
                              std::span<const std::uint32_t> slots,
                              const ScLayerConfig& cfg,
                              const sc::SeedAllocator& alloc,
                              const GeneratorTables& tables,
                              fault::FaultModel* fm, bool use_table,
                              std::optional<std::uint64_t> trng_pass) {
  const std::size_t len = static_cast<std::size_t>(cfg.stream_len);
  const std::size_t wpl = (len + 63) / 64;
  // Fills slots [lo, hi) of the list.
  auto fill = [&](std::size_t lo, std::size_t hi) {
    // Locals, not captures (see build_weight_bank).
    const std::size_t nw = wpl;
    const unsigned n = alloc.bits(), vb = cfg.value_bits;
    const std::uint32_t* const slot = slots.data();
    const float* const in = input.data();
    const sc::StreamTable* const* const table =
        tables.tables.empty() ? nullptr : tables.tables.data();
    using Site = fault::FaultModel::Site;
    for (std::size_t s = lo; s < hi; ++s) {
      const std::size_t i = slot[s];
      std::uint64_t* const dst = bank + i * nw;
      std::uint32_t q = quantize_unsigned(std::clamp(in[i], 0.0f, 1.0f), vb);
      if (table != nullptr) {
        const std::uint64_t* stream = table_stream(
            tables, *table[alloc.activation_id(i)], cfg, n, q, dst);
        if (stream != dst) std::copy(stream, stream + nw, dst);
        continue;
      }
      if (fm != nullptr) q = fm->sram_read(q, vb, Site::kActSram, i);
      sc::SeedSpec spec = alloc.activation(i);
      if (trng_pass) spec = pass_spec(cfg, spec, *trng_pass);
      generate_stream(dst, nw, len, cfg, spec, q, fm, Site::kActStream, i,
                      use_table);
    }
  };
  // Blocks of slots per parallel_for iteration: one slot's stream is a row
  // copy, far too little work to dispatch alone. A single block (the lazy
  // path's one slot) runs here, without wrapping `fill` in a std::function.
  constexpr std::size_t kBlock = 512;
  if (slots.size() <= kBlock) return fill(0, slots.size());
  exec::parallel_for(
      static_cast<std::int64_t>((slots.size() + kBlock - 1) / kBlock),
      [&](std::int64_t blk) {
        const std::size_t lo = static_cast<std::size_t>(blk) * kBlock;
        fill(lo, std::min(slots.size(), lo + kBlock));
      });
}

namespace {

// Streaming APC state (modeled after [24]): products are consumed in pairs,
// merged with alternating OR / AND at weight 2, so the over-count of OR
// merges and the under-count of AND merges cancel in expectation; see
// sc/parallel_counter.hpp. The positive and negative channels pair
// independently (they feed separate counter inputs in hardware).
struct ApcState {
  explicit ApcState(std::size_t wpl)
      : channels_{Channel(wpl), Channel(wpl)} {}

  // An all-zero product carries no counts and is not paired.
  void push(const std::uint64_t* prod, std::size_t wpl, std::int64_t sign) {
    if (std::all_of(prod, prod + wpl, [](std::uint64_t v) { return v == 0; }))
      return;
    Channel& ch = channels_[sign > 0 ? 0 : 1];
    if (!ch.has_pending) {
      std::copy(prod, prod + wpl, ch.pending.begin());
      ch.has_pending = true;
      return;
    }
    std::int64_t merged = 0;
    for (std::size_t i = 0; i < wpl; ++i) {
      const std::uint64_t m = ch.use_or ? (ch.pending[i] | prod[i])
                                        : (ch.pending[i] & prod[i]);
      merged += std::popcount(m);
    }
    total_ += 2 * merged * sign;
    ch.has_pending = false;
    ch.use_or = !ch.use_or;
  }

  // The output's total; leaves the state ready for the next output.
  std::int64_t finish(std::size_t wpl) {
    const std::int64_t signs[2] = {+1, -1};
    for (int c = 0; c < 2; ++c) {
      Channel& ch = channels_[c];
      if (ch.has_pending)
        total_ += signs[c] * static_cast<std::int64_t>(
                                 sc::simd::popcount_words(ch.pending.data(),
                                                          wpl));
      ch.has_pending = false;
      ch.use_or = true;
    }
    return std::exchange(total_, 0);
  }

 private:
  struct Channel {
    explicit Channel(std::size_t wpl) : pending(wpl, 0) {}
    std::vector<std::uint64_t> pending;
    bool has_pending = false;
    bool use_or = true;
  };
  Channel channels_[2];
  std::int64_t total_ = 0;
};

bool or_accum(AccumMode mode) {
  return mode == AccumMode::kOr || mode == AccumMode::kPbw ||
         mode == AccumMode::kPbhw;
}

// The SC forward pass of one convolution, shared by ScConv2d and ScLinear
// (a linear layer is a 1x1 convolution over an (in, 1, 1) map).
//   weights (cout, cin, k, k) in tap order;  x (nb, cin, h, w)
// Tap t = (ic * k + ky) * k + kx. Under OR/PBW/PBHW accumulation its
// products are OR-ed into group tap_group[t], each group feeding its own
// 1-bit/cycle counter; FXP and APC take an empty map. Returns the outputs
// (nb, cout, ho, wo) and sets `atten` to the per-output OR attenuation
// the backward pass scales by (1 where nothing is OR-ed).
Tensor sc_forward(const ScLayerConfig& cfg, std::uint64_t pass, int cout,
                  std::span<const float> weights, const Tensor& x, int k,
                  int stride, int pad, const std::vector<int>& tap_group,
                  Tensor& atten) {
  const int nb = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = (h + 2 * pad - k) / stride + 1;
  const int wo = (w + 2 * pad - k) / stride + 1;
  const int K = cin * k * k;
  const int L = cfg.stream_len;
  const std::size_t len = static_cast<std::size_t>(L);
  const std::size_t wpl = (len + 63) / 64;
  const sc::KernelExtents ext{cout, cin, k, k};
  const sc::SeedAllocator alloc(cfg.sharing, cfg.lfsr_bits(), ext,
                                cfg.layer_salt);

  fault::FaultModel* const fm = fault::active();
  const bool accum_faults = fm != nullptr && fm->accum_active();
  const bool stuck_faults = fm != nullptr && fm->stuck_enabled();
  const bool use_table = sc::stream_table_enabled();

  // One stream per weight (in its sign's bank, oc-major) and per input
  // activation, the activation tables resolved once for the whole batch.
  // Fault sites are the buffer slot indices (no batch term): the same
  // physical SNG buffer slot misbehaves identically for every image.
  const WeightBank bank = build_weight_bank(
      weights, ext, cfg, alloc,
      {.oc_stride = static_cast<std::size_t>(K) * wpl, .tap_stride = wpl,
       .word_stride = 1},
      fm, use_table, pass);
  const std::uint64_t* const wpos = bank.pos.get();
  const std::uint64_t* const wneg = bank.neg.get();

  const int groups =
      tap_group.empty()
          ? 0
          : *std::max_element(tap_group.begin(), tap_group.end()) + 1;
  const std::size_t slots = static_cast<std::size_t>(cin) * h * w;
  std::vector<std::uint64_t> act(slots * wpl);
  std::vector<std::uint32_t> every_slot(slots);
  std::iota(every_slot.begin(), every_slot.end(), 0u);
  const GeneratorTables act_tables =
      resolve_activation_tables(cfg, alloc, slots, fm, use_table);
  // One output's products, after accumulator-input faults: a row per
  // in-bounds tap in each plane (pos, neg; wpl words). FXP and APC rows are
  // in tap order. Under OR groups, group g's rows fill its segment from
  // seg[g] up to seg_end[g], so each group ORs one contiguous run.
  std::vector<std::uint64_t> pos_rows(static_cast<std::size_t>(K) * wpl);
  std::vector<std::uint64_t> neg_rows(static_cast<std::size_t>(K) * wpl);
  std::vector<std::size_t> seg(static_cast<std::size_t>(groups) + 1, 0);
  for (const int g : tap_group) ++seg[static_cast<std::size_t>(g) + 1];
  for (int g = 0; g < groups; ++g) seg[g + 1] += seg[g];
  std::vector<std::size_t> seg_end(seg.size());
  std::vector<std::uint64_t> scratch(static_cast<std::size_t>(groups) * 2 *
                                     wpl);
  ApcState apc(wpl);
  const double inv_len = 1.0 / static_cast<double>(L);
  Tensor y({nb, cout, ho, wo});
  atten = Tensor({nb, cout, ho, wo}, 1.0f);

  for (int b = 0; b < nb; ++b) {
    build_activation_streams(act.data(), x.data().subspan(b * slots, slots),
                             every_slot, cfg, alloc, act_tables, fm,
                             use_table, pass);

    for (int oc = 0; oc < cout; ++oc)
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox) {
          const std::size_t oidx =
              (static_cast<std::size_t>(oc) * ho + oy) * wo + ox;
          std::size_t rows = 0;
          std::copy(seg.begin(), seg.end(), seg_end.begin());
          for (int ic = 0, row_tap = 0; ic < cin; ++ic)
            for (int ky = 0; ky < k; ++ky, row_tap += k) {
              const int iy = oy * stride - pad + ky;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * stride - pad + kx;
                if (ix < 0 || ix >= w) continue;
                const int t = row_tap + kx;
                const std::uint64_t* a =
                    &act[((static_cast<std::size_t>(ic) * h + iy) * w + ix) *
                         wpl];
                const std::size_t wi =
                    (static_cast<std::size_t>(oc) * K + t) * wpl;
                const std::size_t r =
                    groups > 0 ? seg_end[tap_group[t]]++ : rows++;
                std::uint64_t* pp = &pos_rows[r * wpl];
                std::uint64_t* pn = &neg_rows[r * wpl];
                for (std::size_t j = 0; j < wpl; ++j) {
                  pp[j] = a[j] & wpos[wi + j];
                  pn[j] = a[j] & wneg[wi + j];
                }
                if (accum_faults) {
                  const std::uint64_t asite =
                      (static_cast<std::uint64_t>(oidx) * K + t) * 2;
                  fm->corrupt_accum_input(pp, len, asite);
                  fm->corrupt_accum_input(pn, len, asite + 1);
                }
              }
            }

          std::int64_t total = 0;
          if (groups > 0) {
            for (int g = 0; g < groups; ++g)
              for (std::size_t j = 0; j < wpl; ++j) {
                std::uint64_t pos = 0, neg = 0;
                for (std::size_t r = seg[g]; r < seg_end[g]; ++r) {
                  pos |= pos_rows[r * wpl + j];
                  neg |= neg_rows[r * wpl + j];
                }
                scratch[static_cast<std::size_t>(g) * 2 * wpl + j] = pos;
                scratch[static_cast<std::size_t>(g) * 2 * wpl + wpl + j] = neg;
              }
            double group_atten = 0.0;
            for (int g = 0; g < groups; ++g) {
              const std::uint64_t* gp =
                  &scratch[static_cast<std::size_t>(g) * 2 * wpl];
              const std::uint64_t* gn = gp + wpl;
              const auto pos = static_cast<std::int64_t>(
                  sc::simd::popcount_words(gp, wpl));
              const auto neg = static_cast<std::int64_t>(
                  sc::simd::popcount_words(gn, wpl));
              if (stuck_faults) {
                // Each group's OR output feeds a 1-bit/cycle counter; the
                // stuck column corrupts it cycle by cycle (matches the
                // GeoMachine path exactly).
                for (int c = 0; c < L; ++c) {
                  total += fm->apply_stuck(static_cast<std::uint32_t>(
                      (gp[c >> 6] >> (c & 63)) & 1u));
                  total -= fm->apply_stuck(static_cast<std::uint32_t>(
                      (gn[c >> 6] >> (c & 63)) & 1u));
                }
              } else {
                total += pos - neg;
              }
              group_atten +=
                  1.0 - static_cast<double>(std::max(pos, neg)) * inv_len;
            }
            atten.at(b, oc, oy, ox) =
                static_cast<float>(std::max(group_atten / groups, 0.05));
          } else if (cfg.accum == AccumMode::kApc) {
            for (std::size_t r = 0; r < rows; ++r) {
              apc.push(&pos_rows[r * wpl], wpl, +1);
              apc.push(&neg_rows[r * wpl], wpl, -1);
            }
            total = apc.finish(wpl);
          } else if (stuck_faults) {
            // kFxp: every product feeds one parallel counter, whose
            // per-cycle pos and neg counts the stuck column corrupts.
            for (int c = 0; c < L; ++c) {
              std::uint32_t pos = 0, neg = 0;
              const std::size_t word = static_cast<std::size_t>(c >> 6);
              for (std::size_t r = 0; r < rows; ++r) {
                pos += (pos_rows[r * wpl + word] >> (c & 63)) & 1u;
                neg += (neg_rows[r * wpl + word] >> (c & 63)) & 1u;
              }
              total += fm->apply_stuck(pos);
              total -= fm->apply_stuck(neg);
            }
          } else {
            total = static_cast<std::int64_t>(
                        sc::simd::popcount_words(pos_rows.data(), rows * wpl)) -
                    static_cast<std::int64_t>(
                        sc::simd::popcount_words(neg_rows.data(), rows * wpl));
          }
          y.at(b, oc, oy, ox) = static_cast<float>(total * inv_len);
        }
  }
  return y;
}

}  // namespace

// ------------------------------------------------------------- ScConv2d

ScConv2d::ScConv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
                   std::mt19937& rng, const ScLayerConfig& cfg)
    : Conv2d(in_ch, out_ch, kernel, stride, pad, rng), cfg_(cfg) {}

Tensor ScConv2d::forward(const Tensor& x, bool /*train*/) {
  input_ = x;  // float input for the inherited backward
  // OR group of tap (ic, ky, kx): one per output (OR), the kernel column
  // (PBW) or the kernel position (PBHW).
  std::vector<int> tap_group;
  if (or_accum(cfg_.accum))
    for (int t = 0; t < in_ch_ * kernel_ * kernel_; ++t) {
      const int kx = t % kernel_, ky = t / kernel_ % kernel_;
      tap_group.push_back(cfg_.accum == AccumMode::kPbw    ? kx
                          : cfg_.accum == AccumMode::kPbhw ? ky * kernel_ + kx
                                                           : 0);
    }
  return sc_forward(cfg_, forward_count_++, out_ch_, weight_.value.data(), x,
                    kernel_, stride_, pad_, tap_group, atten_);
}

Tensor ScConv2d::backward(const Tensor& grad_out) {
  if (atten_.empty()) return Conv2d::backward(grad_out);
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= atten_[i];
  return Conv2d::backward(g);
}

// ------------------------------------------------------------- ScLinear

ScLinear::ScLinear(int in_features, int out_features, std::mt19937& rng,
                   const ScLayerConfig& cfg)
    : Linear(in_features, out_features, rng), cfg_(cfg) {}

Tensor ScLinear::forward(const Tensor& x, bool /*train*/) {
  input_ = x;
  const int nb = x.dim(0);
  // Contiguous groups of fc_group inputs (PBW/PBHW), or one (OR).
  std::vector<int> tap_group;
  if (or_accum(cfg_.accum))
    for (int i = 0; i < in_; ++i)
      tap_group.push_back(
          cfg_.accum == AccumMode::kOr ? 0 : i / std::max(cfg_.fc_group, 1));
  Tensor atten;
  Tensor y = sc_forward(cfg_, forward_count_++, out_, weight_.value.data(),
                        x.reshaped({nb, in_, 1, 1}), 1, 1, 0, tap_group, atten)
                 .reshaped({nb, out_});
  atten_ = atten.reshaped({nb, out_});
  for (int b = 0; b < nb; ++b)
    for (int o = 0; o < out_; ++o)
      y.at(b, o) += bias_.value[static_cast<std::size_t>(o)];
  return y;
}

Tensor ScLinear::backward(const Tensor& grad_out) {
  if (atten_.empty()) return Linear::backward(grad_out);
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= atten_[i];
  return Linear::backward(g);
}

// ------------------------------------------------------------- Quantized

Tensor QuantConv2d::forward(const Tensor& x, bool /*train*/) {
  input_ = x;  // straight-through: float input for backward
  const Tensor saved = weight_.value;
  weight_.value = fake_quantize_signed(saved, bits_);
  Tensor y = forward_float(fake_quantize_unsigned(x, bits_));
  weight_.value = saved;
  return y;
}

Tensor QuantLinear::forward(const Tensor& x, bool /*train*/) {
  input_ = x;
  const Tensor saved = weight_.value;
  weight_.value = fake_quantize_signed(saved, bits_);
  Tensor y = forward_float(fake_quantize_unsigned(x, bits_));
  weight_.value = saved;
  return y;
}

// ------------------------------------------------------------- Reference

std::vector<std::int32_t> fxp_reference_counters(
    int cin, int hin, int win, int cout, int kh, int kw, int stride, int pad,
    std::span<const float> weights, std::span<const float> input,
    unsigned value_bits, int stream_len) {
  if (cin <= 0 || hin <= 0 || win <= 0 || cout <= 0 || kh <= 0 || kw <= 0 ||
      stride <= 0 || pad < 0)
    throw std::invalid_argument("fxp_reference_counters: bad shape");
  const int ho = (hin + 2 * pad - kh) / stride + 1;
  const int wo = (win + 2 * pad - kw) / stride + 1;
  if (ho <= 0 || wo <= 0)
    throw std::invalid_argument("fxp_reference_counters: empty output");
  const std::size_t wsize = static_cast<std::size_t>(cout) * cin * kh * kw;
  const std::size_t isize = static_cast<std::size_t>(cin) * hin * win;
  if (weights.size() != wsize || input.size() != isize)
    throw std::invalid_argument("fxp_reference_counters: span size mismatch");

  // An ideal stream of length L carrying code q (of 2^vb levels) has
  // popcount q/2^vb * L; an AND of two independent ideal streams has the
  // product of the probabilities. The counters the machine accumulates are
  // pos-minus-neg popcounts, so the noise-free expectation per output is
  //   round(L * sum_taps sign(w) * (qw/2^vb) * (qa/2^vb)).
  // Same quantization as the stream generators above: |w| clamped to [0,1],
  // a clamped to [0,1], both to `value_bits` unsigned codes.
  const double scale = static_cast<double>(1u << value_bits);
  std::vector<std::int32_t> counters(
      static_cast<std::size_t>(cout) * ho * wo, 0);
  for (int oc = 0; oc < cout; ++oc) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        double acc = 0.0;
        for (int ic = 0; ic < cin; ++ic) {
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= hin) continue;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= win) continue;
              const float w = std::clamp(
                  weights[((static_cast<std::size_t>(oc) * cin + ic) * kh +
                           ky) *
                              kw +
                          kx],
                  -1.0f, 1.0f);
              const float a = std::clamp(
                  input[(static_cast<std::size_t>(ic) * hin + iy) * win + ix],
                  0.0f, 1.0f);
              const double pw =
                  quantize_unsigned(std::abs(w), value_bits) / scale;
              const double pa = quantize_unsigned(a, value_bits) / scale;
              acc += (w < 0.0f ? -1.0 : 1.0) * pw * pa;
            }
          }
        }
        counters[(static_cast<std::size_t>(oc) * ho + oy) * wo + ox] =
            static_cast<std::int32_t>(std::llround(acc * stream_len));
      }
    }
  }
  return counters;
}

}  // namespace geo::nn
