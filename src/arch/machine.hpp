// GeoMachine: a functional, cycle-counting model of one GEO accelerator
// executing a convolutional layer with real data — the "architecture
// simulator" companion to the analytical PerfSim.
//
// The machine owns the two on-chip memories and walks the compiled pass
// schedule the way the hardware does: for every pass it fills the weight and
// activation SNG buffers (counting reload beats against the fill network,
// with progressive loading and shadow buffering), runs the stream generation
// and MAC rows bit-exactly using the sc substrate, accumulates the output
// converters, spills partial sums to activation memory through the 2-cycle
// near-memory read-add-write, and finally applies near-memory fixed-point
// batch-norm + bounded ReLU before writing activations back.
//
// Functional contract (tested): the pre-BN output counts equal what the
// nn::ScConv2d reference computes for the same configuration, seed layout
// and quantized operands — the hardware mapping (rows, windows, kernel
// slices) must not change the arithmetic. Both sides fill their weight
// banks with the one nn::build_weight_bank (each in its own layout) and
// their activation streams with the one nn::build_activation_streams; the
// MAC reductions stay independent. The nn reference runs ScLinear as its conv kernel on a
// 1x1 map with contiguous fc_group-input OR groups, while the machine maps
// an FC layer as a 1x1 conv with one PBW group, so FC layers are outside
// the contract.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/hw_config.hpp"
#include "core/status.hpp"
#include "nn/sc_layers.hpp"

namespace geo::arch {

struct MachineStats {
  std::int64_t passes = 0;
  std::int64_t compute_cycles = 0;
  std::int64_t stall_cycles = 0;
  // Sub-bucket of stall_cycles charged by the resilience layer (retry
  // backoff, scrubbing) and by detected-SRAM-retry beats — the
  // fault-recovery share of the stalls, as opposed to the buffer-fill /
  // reload stalls intrinsic to stream generation. Always
  // 0 <= retry_stall_cycles <= stall_cycles; attribution (see
  // arch/attribution.hpp) reports stall_cycles - retry_stall_cycles as
  // generation cost.
  std::int64_t retry_stall_cycles = 0;
  // Sub-bucket of stall_cycles charged by the out-of-core weight store
  // (src/store/) for cycles the machine sat waiting on block loads that did
  // not overlap execution. Disjoint from retry_stall_cycles; attribution
  // folds it into the *memory* bucket (external-memory traffic, not fault
  // recovery). Always 0 <= retry_stall + io_stall <= stall_cycles.
  std::int64_t io_stall_cycles = 0;
  std::int64_t nearmem_cycles = 0;
  std::int64_t total_cycles = 0;
  std::int64_t act_buffer_fills = 0;  // values loaded into act SNG buffers
  std::int64_t wgt_buffer_fills = 0;
  std::int64_t psum_ops = 0;
  std::int64_t bn_ops = 0;
  // False when the cycle ledger failed to reconcile (every total cycle must
  // be attributed to exactly one of compute / stall / near-memory and no
  // bucket may go negative). Checked always, not just in debug builds; a
  // mismatch also bumps the machine.ledger_mismatch telemetry counter.
  bool ledger_ok = true;
};

// One layer's execution result: quantized output activations (after BN +
// bounded ReLU, in the unipolar 8-bit domain) plus the raw pre-BN counter
// values and execution statistics.
struct MachineResult {
  // (cout, hout, wout), row-major; valid after BN/ReLU.
  std::vector<std::uint8_t> activations;
  // Raw output-converter totals, same layout (pos - neg counts).
  std::vector<std::int32_t> counters;
  MachineStats stats;
};

// The near-memory BN + bounded-ReLU write-back, shared by the machine and
// the resilience layer's fixed-point reference path (degraded tiles must go
// through the exact same rounding).
//   counters     (cout * per_channel) raw pos-neg counts
//   activations  same size, receives the 8-bit unipolar outputs
void apply_bn_relu(std::span<const std::int32_t> counters,
                   std::span<const float> bn_scale,
                   std::span<const float> bn_shift, int stream_len,
                   std::int64_t per_channel,
                   std::span<std::uint8_t> activations);

// The immutable, input-independent half of a prepared convolution (defined
// in machine.cpp): the pass plan, seed allocator, channel-blocked weight
// bank, tap decode and window-packing layout, the fault model it was built
// under, and the ECC retry cycles its weight-SRAM reads cost. Built by
// GeoMachine::prepare; weights stay stationary while inputs stream past, so
// any number of runs may bind to one bank (ConvExecution::bind). The
// exception is a bank built under a transient fault model: regenerating it
// would draw fresh faults, so it serves exactly one run and a second bind
// fails with kFailedPrecondition. The fault model must outlive the bank.
class PreparedConv;

// One run of a PreparedConv against one input snapshot, executed tile by
// tile. One tile is one (channel group, window group) pair; running it
// executes every kernel slice for that tile's outputs against the input
// snapshot (activation streams are generated once per run, weight streams
// once per bank), so re-running a tile is the hardware's retry-from-
// snapshot. The input span must outlive the run; the run keeps its bank
// alive. `finish()` applies BN/ReLU, reconciles the cycle ledger and
// mirrors the stats into telemetry — running every tile exactly once and
// finishing is bit- and stat-identical to GeoMachine::try_run_conv, whether
// or not the bank is shared: every run charges the bank's weight-read ECC
// retries.
//
// Activation streams: with no fault model, a deterministic RNG and the
// stream table on, bind fills the stream of every slot some window reads
// from the layer's activation tables (resolved once by prepare), and the
// tiles read a complete bank. Otherwise each stream is generated on first
// touch, with its fault sites, and invalidate_tile_inputs can drop it.
//
// Execution: each pass of a tile gathers every window's activation words
// once into a contiguous [taps][wpl] row (padded taps as zero words; at
// L <= 32 several windows share a row, one per word slot), copying the
// taps of a kernel row as one run of consecutive input slots, then reduces
// a block of output channels per vector op against it, reading the
// channel-blocked weight bank. Runs with accumulator-input or stuck-counter
// faults gather unpacked rows and take the per-tap reference reduction
// instead (see docs/SIMD.md).
//
// Thread-safety: distinct tiles may run concurrently (exec::
// ParallelConvRunner does this) — tile outputs are disjoint, gathered rows
// and accumulators are private per run_tile call, the activation bank is
// either complete before any tile runs or a generate-once lazy cache under
// an atomic claim, and stat deltas merge under a lock, so the result is
// byte-identical to the serial tile loop at any thread count (see
// docs/PARALLELISM.md). All other methods (invalidate_tile_inputs,
// counters, finish, ...) must be called with no run_tile in flight.
class ConvExecution {
 public:
  // Binds a fresh run of `prepared` to `input`: kInvalidArgument when the
  // input does not fit the shape, kFailedPrecondition on a second bind of a
  // bank built under a transient fault model.
  static geo::StatusOr<ConvExecution> bind(
      std::shared_ptr<const PreparedConv> prepared,
      std::span<const float> input);

  ConvExecution(ConvExecution&&) noexcept;
  ConvExecution& operator=(ConvExecution&&) noexcept;
  ~ConvExecution();

  std::int64_t tile_count() const;

  // Output indices written by `tile` (disjoint across tiles, each covered by
  // exactly one tile).
  std::vector<std::size_t> tile_outputs(std::int64_t tile) const;

  // Activation-stream indices read by `tile` (sorted, unique). Shared across
  // channel groups: tiles over the same window group read the same streams.
  // The resilience layer uses this to attribute first-access fault events to
  // the tile the serial loop would have charged them to.
  std::vector<std::size_t> tile_inputs(std::int64_t tile) const;

  // (Re)executes one tile. The tile's counters are zeroed first, so a retry
  // replaces — never double-counts — its partial sums. Cycle/stat costs
  // accumulate on every run (a retry really recomputes); the returned value
  // is this run's cost alone (the delta merged into stats()).
  MachineStats run_tile(std::int64_t tile);

  // Drops the cached activation streams feeding `tile`, so the next run_tile
  // re-reads activation SRAM and regenerates them. A retry after a detected
  // SRAM/stream fault must go through this, otherwise it would replay the
  // same poisoned buffers and recovery under a transient fault model could
  // never succeed. A no-op for a bank bind filled: with no fault model,
  // regeneration would give the same streams.
  void invalidate_tile_inputs(std::int64_t tile);

  // Partial-sum state accumulated so far (indexed like MachineResult::counters).
  std::span<const std::int32_t> counters() const;

  // Execution statistics accumulated so far (ledger not yet reconciled).
  const MachineStats& stats() const;

  // Extra stall cycles charged to the ledger (retry backoff, scrubbing).
  void add_stall_cycles(std::int64_t cycles);

  // Stall cycles spent waiting on out-of-core block loads (weight-store pin
  // latency that execution could not overlap). Lands in the io sub-bucket,
  // which attribution reports as memory cost.
  void add_io_stall_cycles(std::int64_t cycles);

  // The nn-layer configuration this execution matches.
  const nn::ScLayerConfig& config() const;

  // BN + bounded ReLU write-back, ledger reconciliation, telemetry mirror.
  // Call at most once; the result is consumed.
  MachineResult finish();

 private:
  struct Impl;
  explicit ConvExecution(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

class GeoMachine {
 public:
  explicit GeoMachine(const HwConfig& hw);

  // Executes one convolutional layer.
  //   weights  : (cout, cin, kh, kw) signed values in [-1, 1]
  //   input    : (cin, hin, win) unipolar values in [0, 1]
  //   bn_scale / bn_shift : per-output-channel folded BN coefficients
  //   layer_salt : seed-space rotation, must match the reference model
  // Throws std::invalid_argument on shape/operand mismatch (legacy API;
  // implemented on top of try_run_conv).
  MachineResult run_conv(const ConvShape& shape,
                         std::span<const float> weights,
                         std::span<const float> input,
                         std::span<const float> bn_scale,
                         std::span<const float> bn_shift,
                         std::uint64_t layer_salt);

  // Non-throwing variant: pre-flight validates the shape and operand sizes
  // and returns a structured error instead of crashing or throwing. On
  // success the MachineResult is identical to run_conv's.
  geo::StatusOr<MachineResult> try_run_conv(const ConvShape& shape,
                                            std::span<const float> weights,
                                            std::span<const float> input,
                                            std::span<const float> bn_scale,
                                            std::span<const float> bn_shift,
                                            std::uint64_t layer_salt);

  // Validates the layer and builds its weight bank, ready to bind runs to.
  geo::StatusOr<std::shared_ptr<const PreparedConv>> prepare(
      const ConvShape& shape, std::span<const float> weights,
      std::span<const float> bn_scale, std::span<const float> bn_shift,
      std::uint64_t layer_salt);

  // prepare + bind: validates the layer and input, and builds a tile-
  // granular run (the machinery under try_run_conv). The input span must
  // outlive the returned execution.
  geo::StatusOr<ConvExecution> prepare_conv(const ConvShape& shape,
                                            std::span<const float> weights,
                                            std::span<const float> input,
                                            std::span<const float> bn_scale,
                                            std::span<const float> bn_shift,
                                            std::uint64_t layer_salt);

  // The pre-flight validation used by try_run_conv, exposed for callers that
  // want to reject bad layers before allocating stream buffers.
  geo::Status validate_conv(const ConvShape& shape,
                            std::span<const float> weights,
                            std::span<const float> input,
                            std::span<const float> bn_scale,
                            std::span<const float> bn_shift) const;

  const HwConfig& hw() const { return hw_; }

  // The nn-layer configuration this machine's execution matches.
  nn::ScLayerConfig layer_config(const ConvShape& shape,
                                 std::uint64_t layer_salt) const;

 private:
  // validate_conv minus the input.
  geo::Status validate_layer(const ConvShape& shape,
                             std::span<const float> weights,
                             std::span<const float> bn_scale,
                             std::span<const float> bn_shift) const;

  HwConfig hw_;
};

}  // namespace geo::arch
