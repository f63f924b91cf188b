// Bit-accurate SC-simulated convolution and fully-connected layers, plus the
// fixed-point (fake-quantized) variants used by the Eyeriss baselines.
//
// The SC layers implement the paper's forward pass exactly at stream level:
// split-unipolar streams from shared LFSR/TRNG SNGs (Sec. II-A), optional
// progressive generation (Sec. II-B), and OR / partial-binary / fixed-point
// accumulation (Sec. III-B). backward() is inherited from the float layers —
// SC forward guided by floating-point backpropagation, as in the paper.
//
// Activations are unipolar (post-ReLU values in [0, 1]); weights are signed,
// so each weight carries a positive or a negative channel stream and every
// product needs two ANDs. Per-channel accumulation runs over packed 64-bit
// words.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault_model.hpp"
#include "nn/layers.hpp"
#include "nn/sc_config.hpp"
#include "sc/stream_table.hpp"

namespace geo::nn {

// Per-layer slice of ScModelConfig (the {sp, s} stream-length choice has
// already been made by the model builder).
struct ScLayerConfig {
  sc::RngKind rng = sc::RngKind::kLfsr;
  sc::Sharing sharing = sc::Sharing::kModerate;
  AccumMode accum = AccumMode::kPbw;
  int stream_len = 128;
  unsigned value_bits = 8;
  bool progressive = false;
  std::uint64_t layer_salt = 0;
  int fc_group = 16;

  // GEO matches LFSR width to stream length: streams of 2^n use n bits.
  unsigned lfsr_bits() const;

  // Builds the per-layer config from a model config.
  static ScLayerConfig from_model(const ScModelConfig& model, int stream_len,
                                  int layer_index);
};

// Generates one magnitude stream into `dst` (wpl words, `length` bits): the
// one stream generator of the SC forward pass, shared by the nn SC layers and
// arch::GeoMachine so the two agree bit for bit. `q` is the magnitude in the
// `cfg.value_bits` fixed-point domain. `fm` may be null; when set, seed
// upsets hit the SNG before generation and stream bit flips hit the buffer
// after, keyed by (domain, site) so both sides inject the identical faults
// into the identical slots. The spec is corrupted before the stream-table
// cache is keyed, so a seed-upset stream is served from the corrupted
// sequence's table, never the healthy one. `use_table` routes through the
// shared-sequence cache (sc/stream_table.hpp); off, the calling thread's
// reusable generator ticks bit-serially. Both are bit-identical.
void generate_stream(std::uint64_t* dst, std::size_t wpl, std::size_t length,
                     const ScLayerConfig& cfg, sc::SeedSpec spec,
                     std::uint32_t q, fault::FaultModel* fm,
                     fault::FaultModel::Site domain, std::uint64_t site,
                     bool use_table);

// Where a weight bank puts its words: word k of the stream of the weight in
// output channel oc at tap t = (ic * kh + ky) * kw + kx sits at
//   oc * oc_stride + t * tap_stride + k * word_stride,
// and these must map the cout * taps * wpl words one to one onto the bank.
// A stream of at most 32 bits may be replicated into `pack` slots of
// `slot_bits` bits each (the machine's window packing).
struct WeightBankLayout {
  std::size_t oc_stride = 0;
  std::size_t tap_stride = 0;
  std::size_t word_stride = 0;
  int pack = 1;
  unsigned slot_bits = 64;
};

// A layer's weight streams split by sign: a weight's stream sits in the
// bank of its sign, and the other bank holds zeros in its place.
struct WeightBank {
  std::unique_ptr<std::uint64_t[]> pos, neg;
  std::size_t generators = 0;          // stream tables the fill drew on
  std::size_t per_weight_streams = 0;  // streams generated one by one
};

// Builds one layer's weight bank, the one weight-stream fill shared by the
// nn SC layers and arch::GeoMachine::prepare. Weights are (cout, cin, kh,
// kw) per `ext`, seeded by `alloc` (built for `ext` and cfg.lfsr_bits());
// each is clamped to [-1, 1] and |w| quantized to value_bits.
//   - Fast path (no fault model, a deterministic RNG, use_table): each
//     distinct generator's stream table is looked up once, and each stream
//     is a row of its generator's table (progressive: a ProgressivePlan
//     composition).
//   - Otherwise, or when the registry refuses a table, every weight goes
//     through generate_stream with its own fault sites (its weight index,
//     in kWeightSram and kWeightStream).
// Both paths are bit-identical. `trng_pass` re-seeds TRNG generators per
// forward pass (as the nn layers do); the machine passes none. Every word
// of both banks is written exactly once.
WeightBank build_weight_bank(std::span<const float> weights,
                             const sc::KernelExtents& ext,
                             const ScLayerConfig& cfg,
                             const sc::SeedAllocator& alloc,
                             const WeightBankLayout& layout,
                             fault::FaultModel* fm, bool use_table,
                             std::optional<std::uint64_t> trng_pass = {});

// The stream tables of one layer's generators, resolved once for a stream
// builder's fast path: tables[id] is the comparator table of generator id,
// and `plan` composes progressive streams from them. No tables means the
// builder generates stream by stream.
struct GeneratorTables {
  std::vector<const sc::StreamTable*> tables;
  std::optional<sc::ProgressivePlan> plan;
};

// Resolves a layer's activation generators for build_activation_streams: a
// layer of `slots` activation slots draws on generator ids [0, min(slots,
// alloc.capacity())) (SeedAllocator::activation_id). The tables are looked
// up only when there is no fault model, the RNG is deterministic and
// `use_table` is on; otherwise, or when the registry refuses one, the
// result has none.
GeneratorTables resolve_activation_tables(const ScLayerConfig& cfg,
                                          const sc::SeedAllocator& alloc,
                                          std::size_t slots,
                                          fault::FaultModel* fm,
                                          bool use_table);

// Writes the activation stream of every slot i in `slots` to bank + i * wpl
// (wpl words): the one activation-stream fill shared by the nn SC layers
// and arch::ConvExecution. input[i] is clamped to [0, 1] and quantized to
// value_bits; slot i draws on generator alloc.activation_id(i).
//   - With tables (resolve_activation_tables; `fm` is then null), each
//     stream is a row of its generator's table (progressive: a
//     ProgressivePlan composition).
//   - Without, every slot goes through generate_stream with its own fault
//     sites (its slot index, in kActSram and kActStream).
// Both paths are bit-identical. `trng_pass` re-seeds TRNG generators per
// forward pass, as in build_weight_bank. Slots write disjoint words, so the
// fill is byte-identical at any thread count.
void build_activation_streams(std::uint64_t* bank,
                              std::span<const float> input,
                              std::span<const std::uint32_t> slots,
                              const ScLayerConfig& cfg,
                              const sc::SeedAllocator& alloc,
                              const GeneratorTables& tables,
                              fault::FaultModel* fm, bool use_table,
                              std::optional<std::uint64_t> trng_pass = {});

// Bit-exact fixed-point reference for one convolution layer: quantizes the
// operands exactly like the SC stream generators (|w| and a to `value_bits`
// unsigned codes) and returns the pos-neg counter totals an ideal noise-free
// stream computation of length `stream_len` converges to. This is the bottom
// rung of the resilience degradation ladder (docs/RESILIENCE.md): a layer
// whose SC execution cannot pass its detection guards is recomputed here,
// deterministically and independent of any fault injection.
//   weights (cout, cin, kh, kw) in [-1, 1];  input (cin, hin, win) in [0, 1]
// Returns (cout, hout, wout) counters, hout/wout derived from stride/pad.
std::vector<std::int32_t> fxp_reference_counters(
    int cin, int hin, int win, int cout, int kh, int kw, int stride, int pad,
    std::span<const float> weights, std::span<const float> input,
    unsigned value_bits, int stream_len);

class ScConv2d : public Conv2d {
 public:
  ScConv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
           std::mt19937& rng, const ScLayerConfig& cfg);

  Tensor forward(const Tensor& x, bool train) override;

  // Straight-through backward, scaled per output by the OR-union
  // attenuation observed in the forward pass: for y = 1 - prod(1 - p_i),
  // dy/dp_i = prod_{j!=i}(1 - p_j) ~ (1 - y). Without this, saturated
  // unions receive gradients as if they were linear sums and all-OR
  // training diverges; with it, the backward is the "floating-point guided"
  // pass of Sec. IV. Partial-binary groups saturate less, so their
  // attenuation stays near 1 — one mechanical reason GEO trains better
  // than all-OR accumulation.
  Tensor backward(const Tensor& grad_out) override;

  std::string name() const override { return "sc_conv2d"; }

  const ScLayerConfig& config() const noexcept { return cfg_; }
  ScLayerConfig& config() noexcept { return cfg_; }

 private:
  ScLayerConfig cfg_;
  std::uint64_t forward_count_ = 0;
  Tensor atten_;  // per-output gradient attenuation, shaped like the output
};

class ScLinear : public Linear {
 public:
  ScLinear(int in_features, int out_features, std::mt19937& rng,
           const ScLayerConfig& cfg);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;  // see ScConv2d
  std::string name() const override { return "sc_linear"; }

  const ScLayerConfig& config() const noexcept { return cfg_; }
  ScLayerConfig& config() noexcept { return cfg_; }

 private:
  ScLayerConfig cfg_;
  std::uint64_t forward_count_ = 0;
  Tensor atten_;
};

// Fixed-point baseline layers: fake-quantize weights (signed) and input
// activations (unsigned) to `bits` bits in the forward pass,
// straight-through gradients in backward.
class QuantConv2d : public Conv2d {
 public:
  QuantConv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
              std::mt19937& rng, unsigned bits)
      : Conv2d(in_ch, out_ch, kernel, stride, pad, rng), bits_(bits) {}

  Tensor forward(const Tensor& x, bool train) override;
  std::string name() const override { return "quant_conv2d"; }

 private:
  unsigned bits_;
};

class QuantLinear : public Linear {
 public:
  QuantLinear(int in_features, int out_features, std::mt19937& rng,
              unsigned bits)
      : Linear(in_features, out_features, rng), bits_(bits) {}

  Tensor forward(const Tensor& x, bool train) override;
  std::string name() const override { return "quant_linear"; }

 private:
  unsigned bits_;
};

}  // namespace geo::nn
