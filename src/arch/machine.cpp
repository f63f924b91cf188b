#include "arch/machine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "arch/attribution.hpp"
#include "arch/perf_sim.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "sc/seed_sharing.hpp"
#include "sc/simd.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::arch {

void apply_bn_relu(std::span<const std::int32_t> counters,
                   std::span<const float> bn_scale,
                   std::span<const float> bn_shift, int stream_len,
                   std::int64_t per_channel,
                   std::span<std::uint8_t> activations) {
  const double inv_len = 1.0 / static_cast<double>(stream_len);
  const auto cout = static_cast<std::int64_t>(bn_scale.size());
  for (std::int64_t oc = 0; oc < cout; ++oc)
    for (std::int64_t i = 0; i < per_channel; ++i) {
      const std::size_t oidx =
          static_cast<std::size_t>(oc * per_channel + i);
      const double value = counters[oidx] * inv_len;
      const double bn = bn_scale[static_cast<std::size_t>(oc)] * value +
                        bn_shift[static_cast<std::size_t>(oc)];
      const double act_out = std::clamp(bn, 0.0, 1.0);
      activations[oidx] = static_cast<std::uint8_t>(
          nn::quantize_unsigned(static_cast<float>(act_out), 8));
    }
}

// ------------------------------------------------------------ PreparedConv

struct PreparedConv {
  HwConfig hw;
  ConvShape shape;
  LayerPlan plan;
  nn::ScLayerConfig cfg;
  std::vector<float> bn_scale, bn_shift;
  // The fault model the bank was generated under; runs inject through it.
  fault::FaultModel* fm = nullptr;
  // Under a transient model a regenerated bank would draw fresh per-site
  // faults, so the bank stands for one run only and a second bind fails.
  bool transient = false;
  mutable std::atomic<bool> bound{false};
  // ECC retry cycles the weight-SRAM reads cost while the bank was built.
  // Every run charges them, so a run's ledger does not depend on whether
  // it shared the bank.
  std::int64_t weight_ecc_retry = 0;

  int L = 0;
  std::size_t wpl = 0;
  // Window packing of the clean MAC: streams of L <= 32 bits share a word,
  // `pack` windows per word, each in its own `slot_bits`-wide slot (the
  // smallest of 8/16/32/64 that holds L). Faulted runs do not pack (pack
  // = 1, slot_bits = 64) so the per-tap reduction sees one window per row.
  int pack = 1;
  unsigned slot_bits = 64;
  int K = 0, ho = 0, wo = 0;
  std::int64_t outputs = 0, xy = 0, M = 0;
  int R = 0, chans_at_once = 0, windows_per_pass = 0, slices = 0;
  // OR/PBW/PBHW accumulator groups per output. Tap t = (ic * kh + ky) * kw
  // + kx belongs to group t % groups: one group (OR), the kernel column kx
  // (PBW, groups = kw), or the kernel position ky * kw + kx (PBHW, groups
  // = kh * kw).
  int groups = 1;
  // Taps per kernel slice (the widest gathered row) and the reload stall
  // charged per pass (PerfSim::pass_stall_cycles, computed once per layer).
  std::size_t slice_taps = 0;
  std::int64_t pass_stall = 0;
  bool direct_accum = false, accum_faults = false, stuck_faults = false;
  // GEO_STREAM_TABLE, sampled once per layer so a run's generation strategy
  // is coherent even if the environment changes mid-layer.
  bool use_stream_table = true;

  // Per-layer tap decode, indexed by tap t: the kernel offsets (for the
  // padding check) and the input-plane offset of the tap's channel.
  struct Tap {
    int ky = 0, kx = 0;
    std::size_t plane = 0;
  };
  std::vector<Tap> taps;

  std::optional<sc::SeedAllocator> alloc;
  // The activation slots some window reads, ascending: every input row
  // and column a kernel row covers (a strided layer without padding may
  // skip some). Each run generates exactly these streams.
  std::vector<std::uint32_t> act_slots;
  // The activation generators' tables, resolved once per layer, when
  // bind can fill every read slot's stream up front (no fault model, a
  // deterministic RNG, the stream table on). Empty: runs generate each
  // stream lazily on first touch, with its fault sites.
  nn::GeneratorTables act_tables;
  // Weight streams, channel-blocked: word k of output channel oc's tap t is
  // at ((t * wpl + k) * cout + oc), so one vector load covers neighbouring
  // channels. A short stream is replicated into every window slot of its
  // word. Both MAC paths read this one bank.
  nn::WeightBank bank;

  std::int64_t tiles_cg = 0, tiles_wg = 0;

  telemetry::Histogram* pass_hist = nullptr;
  telemetry::Histogram* gather_hist = nullptr;
  telemetry::Histogram* mac_hist = nullptr;
  telemetry::Histogram* act_streams_hist = nullptr;
  telemetry::Counter* act_gen_counter = nullptr;

  // Activation slot read by `tap` of the window whose top-left input is
  // (iy0, ix0), or -1 for a tap that lands in the padding.
  std::ptrdiff_t tap_input(int iy0, int ix0, const Tap& tap) const {
    const int iy = iy0 + tap.ky, ix = ix0 + tap.kx;
    if (iy < 0 || iy >= shape.hin || ix < 0 || ix >= shape.win) return -1;
    return static_cast<std::ptrdiff_t>(tap.plane) +
           static_cast<std::ptrdiff_t>(iy) * shape.win + ix;
  }
  std::int64_t reduce_per_tap(const std::uint64_t* row,
                              const std::uint8_t* padded,
                              const std::uint64_t* wp,
                              const std::uint64_t* wn, int tap_lo,
                              int tap_hi, std::size_t oidx,
                              std::uint64_t* acc, std::uint64_t* prod,
                              std::vector<std::uint32_t>& cyc) const;
  template <typename Fn>
  void for_each_tile_input(std::int64_t tile, Fn&& fn) const;
};

// ----------------------------------------------------------- ConvExecution

struct ConvExecution::Impl {
  std::shared_ptr<const PreparedConv> prep;
  std::span<const float> input;
  // Activation streams, [slot][wpl]: every read slot's stream, filled at
  // bind when the layer has activation tables, else generated lazily.
  std::unique_ptr<std::uint64_t[]> act;
  // Lazy activation-stream cache flags (null when bind filled the bank):
  // 0 = empty, 1 = being generated, 2 = ready. Atomic so concurrent tiles
  // claim generation exactly once (first CAS winner generates, everyone
  // else waits for the release store) — the stream content is a pure
  // function of the slot, so the winner's identity never changes the bits.
  std::unique_ptr<std::atomic<std::uint8_t>[]> act_ready;
  // The fault model's SRAM retry cycles at bind: finish() charges this
  // run's own reads on top of the bank's weight_ecc_retry.
  std::int64_t fault_retry0 = 0;

  MachineResult result;
  // Guards result.stats merges from concurrent run_tile calls. Tile deltas
  // are integer sums, so the merge order never changes the totals.
  std::mutex stats_mu;
  std::optional<telemetry::ScopedTimer> run_timer;

  // Lazy path: the activation stream in slot `idx`; the first use
  // generates it.
  const std::uint64_t* act_stream(std::size_t idx) {
    if (act_ready[idx].load(std::memory_order_acquire) != 2) claim_act(idx);
    return act.get() + idx * prep->wpl;
  }
  void claim_act(std::size_t idx);
  void gather_window(std::int64_t pos, int tap_lo, int tap_hi, int slot,
                     std::uint64_t* row, std::uint8_t* padded);
  MachineStats run_tile(std::int64_t tile);
  MachineResult finish();
};

void ConvExecution::Impl::claim_act(std::size_t idx) {
  const PreparedConv& pc = *prep;
  std::atomic<std::uint8_t>& flag = act_ready[idx];
  std::uint8_t state = flag.load(std::memory_order_acquire);
  while (state != 2) {
    if (state == 0) {
      std::uint8_t expected = 0;
      if (flag.compare_exchange_strong(expected, 1,
                                       std::memory_order_acq_rel)) {
        pc.act_gen_counter->add(1);
        const auto slot = static_cast<std::uint32_t>(idx);
        nn::build_activation_streams(act.get(), input, {&slot, 1}, pc.cfg,
                                     *pc.alloc, pc.act_tables, pc.fm,
                                     pc.use_stream_table);
        flag.store(2, std::memory_order_release);
        flag.notify_all();
        break;
      }
      state = expected;
      continue;
    }
    // Another tile is generating this stream; its content is identical to
    // what we would produce. Bounded spin (generation is usually a few
    // table-row copies), then park on the atomic so a stalled generator
    // can't make us burn a core under oversubscription. An invalidation
    // (store 0) also wakes us, and the loop retries the claim.
    for (int s = 0; s < 256 && state == 1; ++s) {
      std::this_thread::yield();
      state = flag.load(std::memory_order_acquire);
    }
    if (state == 1) {
      flag.wait(1, std::memory_order_acquire);
      state = flag.load(std::memory_order_acquire);
    }
  }
}

// Gathers window `pos`'s activation words for taps [tap_lo, tap_hi) into
// window slot `slot` of a zeroed row ([tap][wpl]): with packing, word t of
// the row carries window w's stream in bits [w * slot_bits, (w + 1) *
// slot_bits). Padded taps stay zero and are flagged in `padded`. The walk
// goes by runs: the kx taps of one kernel row (ic, ky) read consecutive
// input slots, so a run is clipped to the input once and copied as one
// stretch of words. A slice that starts or ends mid kernel row makes a
// shorter run. On the lazy path every slot of a run still comes through
// act_stream() before the copy, so lazy generation, the claim protocol and
// the SRAM/stream fault hooks see exactly the slots a per-tap walk would.
void ConvExecution::Impl::gather_window(std::int64_t pos, int tap_lo,
                                        int tap_hi, int slot,
                                        std::uint64_t* row,
                                        std::uint8_t* padded) {
  const PreparedConv& pc = *prep;
  const int iy0 = static_cast<int>(pos / pc.wo) * pc.shape.stride -
                  pc.shape.pad;
  const int ix0 = static_cast<int>(pos % pc.wo) * pc.shape.stride -
                  pc.shape.pad;
  const unsigned shift = static_cast<unsigned>(slot) * pc.slot_bits;
  const std::size_t wpl = pc.wpl;
  const int hin = pc.shape.hin, win = pc.shape.win, kw = pc.shape.kw;
  for (int t = tap_lo; t < tap_hi;) {
    const PreparedConv::Tap& tap = pc.taps[static_cast<std::size_t>(t)];
    const int n = std::min(tap_hi - t, kw - tap.kx);  // the run's taps
    // Taps [lo, hi) of the run land inside the input.
    const int iy = iy0 + tap.ky, ix = ix0 + tap.kx;
    int lo = n, hi = n;
    if (iy >= 0 && iy < hin) {
      lo = std::clamp(-ix, 0, n);
      hi = std::clamp(win - ix, lo, n);
    }
    std::fill(padded, padded + n, 1);
    std::fill(padded + lo, padded + hi, 0);
    if (hi > lo) {
      const std::size_t first = tap.plane +
                                static_cast<std::size_t>(iy) * win +
                                static_cast<std::size_t>(ix + lo);
      const std::size_t count = static_cast<std::size_t>(hi - lo);
      if (act_ready != nullptr)
        for (std::size_t i = first; i < first + count; ++i) act_stream(i);
      const std::uint64_t* a = act.get() + first * wpl;
      std::uint64_t* r = row + static_cast<std::size_t>(lo) * wpl;
      for (std::size_t k = 0; k < count * wpl; ++k) r[k] |= a[k] << shift;
    }
    t += n;
    row += static_cast<std::size_t>(n) * wpl;
    padded += n;
  }
}

// The per-tap reference reduction, taken only under accumulator-input or
// stuck-counter faults (fail-closed: every injection site is visited in
// order). It reads an unpacked gathered row and the output channel's
// weights (`wp`/`wn` at tap_lo, word k of a tap `cout` words apart), skips
// exactly the padded taps, forms each product pair explicitly, and lets the
// fault model corrupt it before accumulation. Site ids are per (output,
// tap, channel) wire, mirrored by the nn reference path.
std::int64_t PreparedConv::reduce_per_tap(
    const std::uint64_t* row, const std::uint8_t* padded,
    const std::uint64_t* wp, const std::uint64_t* wn, int tap_lo, int tap_hi,
    std::size_t oidx, std::uint64_t* acc, std::uint64_t* prod,
    std::vector<std::uint32_t>& cyc) const {
  const std::size_t gw = static_cast<std::size_t>(groups) * wpl;
  const auto cout = static_cast<std::size_t>(shape.cout);
  std::fill(acc, acc + 2 * gw, 0);
  std::fill(cyc.begin(), cyc.end(), 0);
  std::int64_t total = 0;
  for (int t = tap_lo; t < tap_hi; ++t, row += wpl, wp += wpl * cout,
           wn += wpl * cout, ++padded) {
    if (*padded) continue;
    for (std::size_t k = 0; k < wpl; ++k) {
      prod[k] = row[k] & wp[k * cout];
      prod[wpl + k] = row[k] & wn[k * cout];
    }
    if (accum_faults) {
      const std::uint64_t asite =
          (static_cast<std::uint64_t>(oidx) * K + t) * 2;
      fm->corrupt_accum_input(prod, static_cast<std::size_t>(L), asite);
      fm->corrupt_accum_input(prod + wpl, static_cast<std::size_t>(L),
                              asite + 1);
    }
    if (!direct_accum) {
      std::uint64_t* gp = acc + static_cast<std::size_t>(t % groups) * wpl;
      sc::simd::or_into(gp, prod, wpl);
      sc::simd::or_into(gp + gw, prod + wpl, wpl);
    } else if (!cyc.empty()) {
      // Stuck-at needs per-cycle counter values, so scatter the product
      // bits into per-cycle pos/neg histograms.
      for (std::size_t k = 0; k < 2 * wpl; ++k) {
        const std::size_t base =
            (k < wpl ? 0 : static_cast<std::size_t>(L)) + (k % wpl) * 64;
        for (std::uint64_t b = prod[k]; b != 0; b &= b - 1)
          ++cyc[base + static_cast<unsigned>(std::countr_zero(b))];
      }
    } else {
      total += static_cast<std::int64_t>(sc::simd::popcount_words(prod, wpl));
      total -= static_cast<std::int64_t>(
          sc::simd::popcount_words(prod + wpl, wpl));
    }
  }
  if (!cyc.empty()) {
    // Direct path under a stuck parallel-counter column: run each per-cycle
    // count through the defective counter.
    for (int t = 0; t < L; ++t) {
      total += fm->apply_stuck(cyc[static_cast<std::size_t>(t)]);
      total -= fm->apply_stuck(cyc[static_cast<std::size_t>(L) + t]);
    }
  }
  if (direct_accum) return total;
  if (!stuck_faults)
    return total +
           static_cast<std::int64_t>(sc::simd::popcount_words(acc, gw)) -
           static_cast<std::int64_t>(sc::simd::popcount_words(acc + gw, gw));
  // Each group's OR output is a 1-bit/cycle count into its output-converter
  // counter; the stuck column corrupts it cycle by cycle.
  for (int g = 0; g < groups; ++g) {
    const std::uint64_t* gp = acc + static_cast<std::size_t>(g) * wpl;
    const std::uint64_t* gn = gp + gw;
    for (int t = 0; t < L; ++t) {
      total += fm->apply_stuck(
          static_cast<std::uint32_t>((gp[t >> 6] >> (t & 63)) & 1u));
      total -= fm->apply_stuck(
          static_cast<std::uint32_t>((gn[t >> 6] >> (t & 63)) & 1u));
    }
  }
  return total;
}

MachineStats ConvExecution::Impl::run_tile(std::int64_t tile) {
  const PreparedConv& pc = *prep;
  const int cg = static_cast<int>(tile / pc.tiles_wg);
  const std::int64_t wg = tile % pc.tiles_wg;
  const int chans = std::min(pc.chans_at_once, pc.shape.cout - cg * pc.R);
  const int windows = static_cast<int>(std::min<std::int64_t>(
      pc.windows_per_pass, pc.xy - wg * pc.windows_per_pass));
  // This run's cost, merged into result.stats at the end — concurrent tiles
  // each accumulate privately so the totals are sums of per-tile integers,
  // identical in any merge order.
  MachineStats st;
  // Per-run scratch (gathered rows, per-(channel, slot) counts, fault-path
  // accumulator groups, product pair and per-cycle counters): private so
  // concurrent tiles never share work buffers. Windows w of the tile sit in
  // row w / pack, slot w % pack; the last row may be partly filled.
  const std::size_t row_words = pc.slice_taps * pc.wpl;
  const int row_count = (windows + pc.pack - 1) / pc.pack;
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(row_count) *
                                  row_words);
  std::vector<std::uint8_t> padded(static_cast<std::size_t>(windows) *
                                   pc.slice_taps);
  auto row_of = [&](int r) {
    return rows.data() + static_cast<std::size_t>(r) * row_words;
  };
  auto padded_of = [&](int w) {
    return padded.data() + static_cast<std::size_t>(w) * pc.slice_taps;
  };
  const bool per_tap = pc.accum_faults || pc.stuck_faults;
  std::vector<std::int32_t> counts(
      per_tap ? 0 : static_cast<std::size_t>(chans) * pc.pack);
  std::vector<std::uint64_t> acc(
      per_tap ? static_cast<std::size_t>(pc.groups) * 2 * pc.wpl : 0);
  std::vector<std::uint64_t> prod(per_tap ? 2 * pc.wpl : 0);
  std::vector<std::uint32_t> cyc(
      pc.stuck_faults && pc.direct_accum ? 2 * static_cast<std::size_t>(pc.L)
                                         : 0);
  const auto cout = static_cast<std::size_t>(pc.shape.cout);

  // Retry-from-snapshot semantics: a re-run replaces the tile's partial
  // sums, it never double-counts them.
  for (int c = 0; c < chans; ++c)
    std::fill_n(result.counters.begin() +
                    static_cast<std::ptrdiff_t>((cg * pc.R + c) * pc.xy +
                                                wg * pc.windows_per_pass),
                windows, 0);

  for (int p = 0; p < pc.slices; ++p) {
    telemetry::ScopedTimer pass_timer(
        *pc.pass_hist, "machine.pass", "machine",
        {{"channel_group", static_cast<double>(cg)},
         {"window_group", static_cast<double>(wg)},
         {"kernel_slice", static_cast<double>(p)},
         {"act_fills", static_cast<double>(pc.plan.act_loads_per_pass)},
         {"wgt_fills", static_cast<double>(pc.plan.wgt_loads_per_pass)}});
    ++st.passes;
    // -- reload accounting (the functional fills below are exact).
    st.act_buffer_fills += pc.plan.act_loads_per_pass;
    st.wgt_buffer_fills += pc.plan.wgt_loads_per_pass;
    st.stall_cycles += pc.pass_stall;
    st.compute_cycles +=
        pc.plan.stream_cycles + (pc.hw.pipeline_stage ? 1 : 0);

    // -- bit-exact computation of this pass's outputs: gather each
    //    window's activation words once, then reduce every output channel
    //    of the tile against the shared rows.
    const int tap_lo = static_cast<int>(p * pc.M);
    const int tap_hi = static_cast<int>(
        std::min<std::int64_t>(pc.K, (p + 1) * pc.M));
    const std::size_t words =
        static_cast<std::size_t>(tap_hi - tap_lo) * pc.wpl;
    {
      telemetry::ScopedTimer gather_timer(*pc.gather_hist,
                                          "machine.act_gather", "machine");
      std::fill(rows.begin(), rows.end(), 0);
      for (int w = 0; w < windows; ++w)
        gather_window(wg * pc.windows_per_pass + w, tap_lo, tap_hi,
                      w % pc.pack, row_of(w / pc.pack), padded_of(w));
    }
    telemetry::ScopedTimer mac_timer(*pc.mac_hist, "machine.mac_rows",
                                     "machine");
    const std::size_t widx =
        static_cast<std::size_t>(tap_lo) * pc.wpl * cout +
        static_cast<std::size_t>(cg * pc.R);
    const std::uint64_t* wp = pc.bank.pos.get() + widx;
    const std::uint64_t* wn = pc.bank.neg.get() + widx;
    auto oidx_of = [&](int c, int w) {
      return static_cast<std::size_t>((cg * pc.R + c) * pc.xy +
                                      wg * pc.windows_per_pass + w);
    };
    // Near-memory read-add-write of one partial sum (first slice writes,
    // later slices accumulate).
    auto accumulate = [&](std::size_t oidx, std::int64_t total) {
      result.counters[oidx] += static_cast<std::int32_t>(total);
      if (p > 0) ++st.psum_ops;
    };
    if (per_tap) {
      for (int c = 0; c < chans; ++c)
        for (int w = 0; w < windows; ++w)
          accumulate(oidx_of(c, w),
                     pc.reduce_per_tap(row_of(w), padded_of(w), wp + c,
                                       wn + c, tap_lo, tap_hi, oidx_of(c, w),
                                       acc.data(), prod.data(), cyc));
      continue;
    }
    // Clean: word j of a row feeds lane j % lanes. OR / PBW / PBHW: tap t
    // belongs to group t % groups, so lane (t - tap_lo) % groups * wpl + k
    // is one (group, word) pair — which group lands in which lane shifts
    // with tap_lo, but the count sums over every group alike. FXP / APC
    // (the machine models APC as exact counting; the area model carries
    // the difference): every word is its own lane.
    const std::size_t lanes =
        pc.direct_accum
            ? words
            : std::min(words, static_cast<std::size_t>(pc.groups) * pc.wpl);
    for (int r = 0; r < row_count; ++r) {
      sc::simd::packed_mac(row_of(r), words, lanes, wp, wn, cout,
                           static_cast<std::size_t>(chans), pc.slot_bits,
                           counts.data());
      const int slots = std::min(pc.pack, windows - r * pc.pack);
      for (int c = 0; c < chans; ++c)
        for (int s = 0; s < slots; ++s)
          accumulate(oidx_of(c, r * pc.pack + s),
                     counts[static_cast<std::size_t>(c * pc.pack + s)]);
    }
  }

  {
    const std::lock_guard<std::mutex> lock(stats_mu);
    MachineStats& g = result.stats;
    g.passes += st.passes;
    g.compute_cycles += st.compute_cycles;
    g.stall_cycles += st.stall_cycles;
    g.retry_stall_cycles += st.retry_stall_cycles;
    g.io_stall_cycles += st.io_stall_cycles;
    g.act_buffer_fills += st.act_buffer_fills;
    g.wgt_buffer_fills += st.wgt_buffer_fills;
    g.psum_ops += st.psum_ops;
  }
  return st;
}

MachineResult ConvExecution::Impl::finish() {
  const PreparedConv& pc = *prep;
  MachineStats& st = result.stats;
  auto& metrics = telemetry::MetricsRegistry::instance();

  // ---- near-memory BN + bounded ReLU + write-back ------------------------
  {
    telemetry::ScopedTimer bn_timer("machine.bn_relu", "machine");
    apply_bn_relu(result.counters, pc.bn_scale, pc.bn_shift, pc.L, pc.xy,
                  result.activations);
    if (pc.hw.near_memory)
      st.bn_ops += static_cast<std::int64_t>(pc.outputs);
  }

  const double lanes = std::max(1, pc.hw.mem_port_bits / 16);
  st.nearmem_cycles = static_cast<std::int64_t>(
      2.0 * (st.psum_ops + st.bn_ops) / lanes);
  // ECC retries on faulty SRAM reads stall the fill network; they are
  // recovery work, so they land in the retry sub-bucket as well. The
  // bank's weight reads count once per run, then this run's own reads.
  if (pc.fm != nullptr) {
    const std::int64_t ecc_retry = pc.weight_ecc_retry +
                                   pc.fm->stats().sram_retry_cycles -
                                   fault_retry0;
    st.stall_cycles += ecc_retry;
    st.retry_stall_cycles += ecc_retry;
  }
  st.total_cycles = st.compute_cycles + st.stall_cycles + st.nearmem_cycles;
  // The cycle ledger must balance: every total cycle is attributed to
  // exactly one of compute / stall / near-memory, the retry sub-bucket
  // must fit inside the stall bucket, and no bucket may go negative (a
  // negative bucket means an accounting bug or overflow). This check is
  // always on — in release builds a violation marks the stats invalid and
  // bumps machine.ledger_mismatch instead of aborting.
  st.ledger_ok =
      st.compute_cycles >= 0 && st.stall_cycles >= 0 &&
      st.nearmem_cycles >= 0 && st.total_cycles >= 0 &&
      st.retry_stall_cycles >= 0 && st.io_stall_cycles >= 0 &&
      st.retry_stall_cycles + st.io_stall_cycles <= st.stall_cycles &&
      st.total_cycles ==
          st.compute_cycles + st.stall_cycles + st.nearmem_cycles;
  if (!st.ledger_ok) metrics.counter("machine.ledger_mismatch").add(1);
  assert(st.ledger_ok && "machine cycle ledger must reconcile");

  // Mirror the per-run stats into the process-wide registry so telemetry
  // consumers see the same ledger MachineStats reports (the machine_test
  // reconciliation assertion depends on these staying in lockstep).
  metrics.counter("machine.passes").add(st.passes);
  metrics.counter("machine.compute_cycles").add(st.compute_cycles);
  metrics.counter("machine.stall_cycles").add(st.stall_cycles);
  metrics.counter("machine.retry_stall_cycles").add(st.retry_stall_cycles);
  metrics.counter("machine.io_stall_cycles").add(st.io_stall_cycles);
  metrics.counter("machine.nearmem_cycles").add(st.nearmem_cycles);
  metrics.counter("machine.total_cycles").add(st.total_cycles);
  metrics.counter("machine.act_buffer_fills").add(st.act_buffer_fills);
  metrics.counter("machine.wgt_buffer_fills").add(st.wgt_buffer_fills);
  metrics.counter("machine.psum_ops").add(st.psum_ops);
  metrics.counter("machine.bn_ops").add(st.bn_ops);
  metrics.counter("machine.layers_executed").add(1);
  // Feed the per-layer generation/execution breakdown (paper Fig. 6's
  // runtime analogue); the ledger republishes the attr.* gauges/counters.
  AttributionLedger::instance().record(
      pc.shape.name.empty() ? "conv" : pc.shape.name, st);
  run_timer.reset();  // close the machine.run_conv span
  return std::move(result);
}

ConvExecution::ConvExecution(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ConvExecution::ConvExecution(ConvExecution&&) noexcept = default;
ConvExecution& ConvExecution::operator=(ConvExecution&&) noexcept = default;
ConvExecution::~ConvExecution() = default;

namespace {

geo::Status check_input(const ConvShape& shape, std::span<const float> input) {
  if (input.size() == static_cast<std::size_t>(shape.activations()))
    return geo::Status();
  return geo::Status::invalid_argument(
      "GeoMachine: input size mismatch: got " + std::to_string(input.size()) +
      ", shape wants " + std::to_string(shape.activations()));
}

}  // namespace

geo::StatusOr<ConvExecution> ConvExecution::bind(
    std::shared_ptr<const PreparedConv> prepared,
    std::span<const float> input) {
  const PreparedConv& pc = *prepared;
  if (geo::Status s = check_input(pc.shape, input); !s.ok()) return s;
  if (pc.bound.exchange(true) && pc.transient)
    return geo::Status::failed_precondition(
        "GeoMachine: '" + pc.shape.name +
        "' was prepared under a transient fault model, whose weight streams "
        "serve one run only; prepare it again");
  auto impl = std::make_unique<Impl>();
  impl->run_timer.emplace("machine.run_conv", "machine");
  impl->input = input;
  // Only read slots are ever written or read, so the bank starts
  // uninitialized.
  impl->act =
      std::make_unique_for_overwrite<std::uint64_t[]>(input.size() * pc.wpl);
  {
    const auto slots = static_cast<double>(pc.act_slots.size());
    const bool eager = !pc.act_tables.tables.empty();
    telemetry::ScopedTimer t(*pc.act_streams_hist, "machine.act_streams",
                             "machine", {{"slots", slots}});
    if (eager) {
      nn::build_activation_streams(impl->act.get(), input, pc.act_slots,
                                   pc.cfg, *pc.alloc, pc.act_tables, nullptr,
                                   pc.use_stream_table);
      pc.act_gen_counter->add(static_cast<std::int64_t>(pc.act_slots.size()));
    } else {
      impl->act_ready =
          std::make_unique<std::atomic<std::uint8_t>[]>(input.size());
      for (std::size_t i = 0; i < input.size(); ++i)
        impl->act_ready[i].store(0, std::memory_order_relaxed);
    }
    t.end_arg("generators", static_cast<double>(pc.act_tables.tables.size()));
    t.end_arg("per_slot_streams", eager ? 0.0 : slots);
  }
  impl->fault_retry0 =
      pc.fm != nullptr ? pc.fm->stats().sram_retry_cycles : 0;
  impl->result.counters.assign(static_cast<std::size_t>(pc.outputs), 0);
  impl->result.activations.assign(static_cast<std::size_t>(pc.outputs), 0);
  impl->prep = std::move(prepared);
  return ConvExecution(std::move(impl));
}

std::int64_t ConvExecution::tile_count() const {
  return impl_->prep->tiles_cg * impl_->prep->tiles_wg;
}

std::vector<std::size_t> ConvExecution::tile_outputs(std::int64_t tile) const {
  const PreparedConv& pc = *impl_->prep;
  const int cg = static_cast<int>(tile / pc.tiles_wg);
  const std::int64_t wg = tile % pc.tiles_wg;
  std::vector<std::size_t> out;
  for (int c = 0; c < pc.chans_at_once; ++c) {
    const int oc = cg * pc.R + c;
    if (oc >= pc.shape.cout) break;
    for (int wslot = 0; wslot < pc.windows_per_pass; ++wslot) {
      const std::int64_t pos = wg * pc.windows_per_pass + wslot;
      if (pos >= pc.xy) break;
      out.push_back(static_cast<std::size_t>(oc) *
                        static_cast<std::size_t>(pc.xy) +
                    static_cast<std::size_t>(pos));
    }
  }
  return out;
}

MachineStats ConvExecution::run_tile(std::int64_t tile) {
  return impl_->run_tile(tile);
}

// Enumerates the activation-stream slots feeding `tile` (with repeats:
// windows overlap). Shared by invalidation and tile_inputs.
template <typename Fn>
void PreparedConv::for_each_tile_input(std::int64_t tile, Fn&& fn) const {
  const std::int64_t wg = tile % tiles_wg;
  for (int wslot = 0; wslot < windows_per_pass; ++wslot) {
    const std::int64_t pos = wg * windows_per_pass + wslot;
    if (pos >= xy) break;
    const int iy0 = static_cast<int>(pos / wo) * shape.stride - shape.pad;
    const int ix0 = static_cast<int>(pos % wo) * shape.stride - shape.pad;
    for (const Tap& tap : taps)
      if (const std::ptrdiff_t aidx = tap_input(iy0, ix0, tap); aidx >= 0)
        fn(static_cast<std::size_t>(aidx));
  }
}

void ConvExecution::invalidate_tile_inputs(std::int64_t tile) {
  Impl& im = *impl_;
  // A bank filled at bind has no fault model to re-read through: its
  // streams are what a regeneration would produce.
  if (im.act_ready == nullptr) return;
  // Every tap of every window in this tile: mark its activation stream
  // stale. Streams are shared across channel groups, so a neighbouring
  // tile's later first-use simply regenerates them (same seed, same SRAM
  // word — bit-identical unless a fault model intervenes).
  im.prep->for_each_tile_input(tile, [&im](std::size_t aidx) {
    im.act_ready[aidx].store(0, std::memory_order_release);
    // Wake any act_stream() parked on state 1 so it re-runs the claim (no
    // waiter can exist on the serial resilience path, but the protocol stays
    // self-contained).
    im.act_ready[aidx].notify_all();
  });
}

std::vector<std::size_t> ConvExecution::tile_inputs(std::int64_t tile) const {
  std::vector<std::size_t> in;
  impl_->prep->for_each_tile_input(
      tile, [&in](std::size_t aidx) { in.push_back(aidx); });
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  return in;
}

std::span<const std::int32_t> ConvExecution::counters() const {
  return impl_->result.counters;
}

const MachineStats& ConvExecution::stats() const {
  return impl_->result.stats;
}

void ConvExecution::add_stall_cycles(std::int64_t cycles) {
  // Injected stalls are always recovery work (retry backoff, scrubbing),
  // never generation cost, so they land in the retry sub-bucket too.
  impl_->result.stats.stall_cycles += cycles;
  impl_->result.stats.retry_stall_cycles += cycles;
}

void ConvExecution::add_io_stall_cycles(std::int64_t cycles) {
  impl_->result.stats.stall_cycles += cycles;
  impl_->result.stats.io_stall_cycles += cycles;
}

const nn::ScLayerConfig& ConvExecution::config() const {
  return impl_->prep->cfg;
}

MachineResult ConvExecution::finish() { return impl_->finish(); }

// ----------------------------------------------------------------- machine

GeoMachine::GeoMachine(const HwConfig& hw) : hw_(hw) {}

nn::ScLayerConfig GeoMachine::layer_config(const ConvShape& shape,
                                           std::uint64_t layer_salt) const {
  const Compiler compiler(hw_);
  nn::ScLayerConfig cfg;
  cfg.rng = hw_.lfsr_per_sng ? sc::RngKind::kTrng : sc::RngKind::kLfsr;
  cfg.sharing = hw_.sharing;
  cfg.accum = hw_.accum;
  cfg.stream_len = compiler.stream_len_for(shape);
  cfg.value_bits = static_cast<unsigned>(hw_.sng_value_bits);
  cfg.progressive = hw_.progressive;
  cfg.layer_salt = layer_salt;
  return cfg;
}

geo::Status GeoMachine::validate_conv(const ConvShape& shape,
                                      std::span<const float> weights,
                                      std::span<const float> input,
                                      std::span<const float> bn_scale,
                                      std::span<const float> bn_shift) const {
  if (geo::Status s = validate_layer(shape, weights, bn_scale, bn_shift);
      !s.ok())
    return s;
  return check_input(shape, input);
}

geo::Status GeoMachine::validate_layer(const ConvShape& shape,
                                       std::span<const float> weights,
                                       std::span<const float> bn_scale,
                                       std::span<const float> bn_shift) const {
  auto fail = [](const std::string& msg) {
    return geo::Status::invalid_argument("GeoMachine: " + msg);
  };
  if (shape.cin < 1 || shape.cout < 1 || shape.hin < 1 || shape.win < 1 ||
      shape.kh < 1 || shape.kw < 1)
    return fail("shape '" + shape.name + "' has non-positive dimensions");
  if (shape.stride < 1)
    return fail("shape '" + shape.name + "' has stride < 1");
  if (shape.pad < 0)
    return fail("shape '" + shape.name + "' has negative padding");
  if (shape.kh > shape.hin + 2 * shape.pad ||
      shape.kw > shape.win + 2 * shape.pad)
    return fail("shape '" + shape.name + "' kernel exceeds padded input");
  if (shape.hout() < 1 || shape.wout() < 1)
    return fail("shape '" + shape.name + "' yields an empty output");
  // The LFSR width is matched to the stream length, so only 2^n streams
  // exist; refuse others here rather than throw from the layer planner.
  if (const int len = Compiler(hw_).stream_len_for(shape);
      len < 1 || (len & (len - 1)) != 0)
    return fail("shape '" + shape.name + "' maps to stream length " +
                std::to_string(len) + ", which is not a power of two");
  if (weights.size() != static_cast<std::size_t>(shape.weights()))
    return fail("weight count mismatch: got " +
                std::to_string(weights.size()) + ", shape wants " +
                std::to_string(shape.weights()));
  if (bn_scale.size() != static_cast<std::size_t>(shape.cout) ||
      bn_shift.size() != bn_scale.size())
    return fail("BN coefficient count mismatch: got " +
                std::to_string(bn_scale.size()) + "/" +
                std::to_string(bn_shift.size()) + ", shape wants " +
                std::to_string(shape.cout));
  return geo::Status();
}

MachineResult GeoMachine::run_conv(const ConvShape& shape,
                                   std::span<const float> weights,
                                   std::span<const float> input,
                                   std::span<const float> bn_scale,
                                   std::span<const float> bn_shift,
                                   std::uint64_t layer_salt) {
  auto result = try_run_conv(shape, weights, input, bn_scale, bn_shift,
                             layer_salt);
  if (!result.ok()) throw std::invalid_argument(result.status().to_string());
  return std::move(result).value();
}

geo::StatusOr<MachineResult> GeoMachine::try_run_conv(
    const ConvShape& shape, std::span<const float> weights,
    std::span<const float> input, std::span<const float> bn_scale,
    std::span<const float> bn_shift, std::uint64_t layer_salt) {
  auto exec = prepare_conv(shape, weights, input, bn_scale, bn_shift,
                           layer_salt);
  if (!exec.ok()) return exec.status();
  ConvExecution execution = std::move(exec).value();
  // Tiles are independent; the runner fans them across the GEO_THREADS pool
  // (bit-identical to the serial loop at any thread count, and exactly the
  // serial loop at GEO_THREADS=1). An exception escaping a tile — e.g. an
  // SC kernel rejecting a degenerate configuration — is rethrown on this
  // thread by the pool and converted to a Status here instead of tearing
  // down a worker.
  try {
    exec::ParallelConvRunner().run_all(execution);
    return execution.finish();
  } catch (const std::exception& e) {
    return geo::Status::internal(
        std::string("GeoMachine: conv execution failed: ") + e.what());
  }
}

geo::StatusOr<ConvExecution> GeoMachine::prepare_conv(
    const ConvShape& shape, std::span<const float> weights,
    std::span<const float> input, std::span<const float> bn_scale,
    std::span<const float> bn_shift, std::uint64_t layer_salt) {
  // Fail closed: reject malformed layers before any buffer is allocated or
  // any telemetry is emitted.
  if (geo::Status s =
          validate_conv(shape, weights, input, bn_scale, bn_shift);
      !s.ok())
    return s;
  auto prepared = prepare(shape, weights, bn_scale, bn_shift, layer_salt);
  if (!prepared.ok()) return prepared.status();
  return ConvExecution::bind(std::move(prepared).value(), input);
}

geo::StatusOr<std::shared_ptr<const PreparedConv>> GeoMachine::prepare(
    const ConvShape& shape, std::span<const float> weights,
    std::span<const float> bn_scale, std::span<const float> bn_shift,
    std::uint64_t layer_salt) {
  if (geo::Status s = validate_layer(shape, weights, bn_scale, bn_shift);
      !s.ok())
    return s;

  auto pc = std::make_shared<PreparedConv>();
  pc->hw = hw_;
  pc->shape = shape;
  const Compiler compiler(hw_);
  pc->plan = compiler.plan_layer(shape, compiler.natural_dataflow());
  pc->cfg = layer_config(shape, layer_salt);
  pc->bn_scale.assign(bn_scale.begin(), bn_scale.end());
  pc->bn_shift.assign(bn_shift.begin(), bn_shift.end());

  pc->fm = fault::active();
  pc->transient = pc->fm != nullptr && pc->fm->config().transient;
  const std::int64_t retry0 =
      pc->fm != nullptr ? pc->fm->stats().sram_retry_cycles : 0;
  pc->use_stream_table = sc::stream_table_enabled();

  const nn::ScLayerConfig& cfg = pc->cfg;
  pc->L = cfg.stream_len;
  pc->wpl = static_cast<std::size_t>((pc->L + 63) / 64);
  const unsigned n = cfg.lfsr_bits();
  pc->ho = shape.hout();
  pc->wo = shape.wout();
  pc->outputs = shape.outputs();
  pc->xy = static_cast<std::int64_t>(pc->ho) * pc->wo;

  const sc::KernelExtents ext{shape.cout, shape.cin, shape.kh, shape.kw};
  pc->alloc.emplace(cfg.sharing, n, ext, layer_salt);
  fault::FaultModel* const fm = pc->fm;
  const std::size_t wpl = pc->wpl;
  const int L = pc->L;

  pc->K = shape.taps();
  pc->direct_accum = cfg.accum == nn::AccumMode::kFxp ||
                       cfg.accum == nn::AccumMode::kApc;
  pc->accum_faults = fm != nullptr && fm->accum_active();
  pc->stuck_faults = fm != nullptr && fm->stuck_enabled();
  if (L <= 32 && !pc->accum_faults && !pc->stuck_faults) {
    pc->slot_bits = std::max(8u, std::bit_ceil(static_cast<unsigned>(L)));
    pc->pack = static_cast<int>(64 / pc->slot_bits);
  }

  // ---- weight memory -> weight SNG streams (whole filter bank) ----------
  {
    telemetry::ScopedTimer t("machine.weight_streams", "machine",
                             {{"streams", static_cast<double>(
                                   weights.size())}});
    const auto cout = static_cast<std::size_t>(shape.cout);
    pc->bank = nn::build_weight_bank(
        weights, ext, cfg, *pc->alloc,
        {.oc_stride = 1, .tap_stride = wpl * cout, .word_stride = cout,
         .pack = pc->pack, .slot_bits = pc->slot_bits},
        fm, pc->use_stream_table);
    t.end_arg("generators", static_cast<double>(pc->bank.generators));
    t.end_arg("per_weight_streams",
              static_cast<double>(pc->bank.per_weight_streams));
  }

  if (fm != nullptr)
    pc->weight_ecc_retry = fm->stats().sram_retry_cycles - retry0;

  auto& metrics = telemetry::MetricsRegistry::instance();
  pc->act_gen_counter = &metrics.counter("machine.act_streams_generated");
  pc->act_streams_hist = &metrics.histogram("machine.act_streams");

  // ---- pass schedule ------------------------------------------------------
  pc->R = hw_.rows;
  pc->chans_at_once = std::min(shape.cout, pc->R);
  pc->windows_per_pass = pc->plan.windows_per_pass;
  pc->slices = pc->plan.kernel_slices;
  pc->M = hw_.macs_per_row;
  pc->slice_taps =
      static_cast<std::size_t>(std::min<std::int64_t>(pc->K, pc->M));
  pc->pass_stall = static_cast<std::int64_t>(
      PerfSim::pass_stall_cycles(hw_, pc->plan));

  if (cfg.accum == nn::AccumMode::kPbw) pc->groups = shape.kw;
  if (cfg.accum == nn::AccumMode::kPbhw) pc->groups = shape.kh * shape.kw;
  pc->taps.resize(static_cast<std::size_t>(pc->K));
  for (int t = 0; t < pc->K; ++t) {
    PreparedConv::Tap& tap = pc->taps[static_cast<std::size_t>(t)];
    tap.kx = t % shape.kw;
    tap.ky = (t / shape.kw) % shape.kh;
    tap.plane = static_cast<std::size_t>(t / (shape.kw * shape.kh)) *
                static_cast<std::size_t>(shape.hin) *
                static_cast<std::size_t>(shape.win);
  }

  // ---- activation slots and generators ----------------------------------
  // Input row iy (column ix) is read when some output row (column) o and
  // kernel offset k give iy = o * stride - pad + k.
  auto covered = [&](int in, int out, int k) {
    std::vector<bool> read(static_cast<std::size_t>(in), false);
    for (int o = 0; o < out; ++o)
      for (int j = 0; j < k; ++j)
        if (const int i = o * shape.stride - shape.pad + j; i >= 0 && i < in)
          read[static_cast<std::size_t>(i)] = true;
    return read;
  };
  const std::vector<bool> rows_read = covered(shape.hin, pc->ho, shape.kh);
  const std::vector<bool> cols_read = covered(shape.win, pc->wo, shape.kw);
  for (int ic = 0; ic < shape.cin; ++ic)
    for (int iy = 0; iy < shape.hin; ++iy)
      for (int ix = 0; ix < shape.win; ++ix)
        if (rows_read[static_cast<std::size_t>(iy)] &&
            cols_read[static_cast<std::size_t>(ix)])
          pc->act_slots.push_back(static_cast<std::uint32_t>(
              (ic * shape.hin + iy) * shape.win + ix));
  pc->act_tables = nn::resolve_activation_tables(
      cfg, *pc->alloc, static_cast<std::size_t>(shape.activations()), fm,
      pc->use_stream_table);

  pc->pass_hist = &metrics.histogram("machine.pass");
  pc->gather_hist = &metrics.histogram("machine.act_gather");
  pc->mac_hist = &metrics.histogram("machine.mac_rows");

  pc->tiles_cg = (shape.cout + pc->R - 1) / pc->R;
  pc->tiles_wg = (pc->xy + pc->windows_per_pass - 1) /
                   pc->windows_per_pass;
  return std::shared_ptr<const PreparedConv>(std::move(pc));
}

}  // namespace geo::arch
