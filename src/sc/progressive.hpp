// Progressive stochastic stream generation (Sec. II-B, Fig. 3b).
//
// A normal SNG waits for all 8 value bits to be loaded into its buffer before
// generation starts. A progressive SNG starts as soon as the 2 MSBs are
// buffered (the rest of the buffer reads as 0) and the remaining bits arrive
// in groups of 2 every two cycles, until the loaded count matches the LFSR
// length. Because GEO matches LFSR length to stream length, short streams
// truncate the fixed-point value anyway, and progressive loading skips the
// truncated bits entirely — fewer memory accesses, 4x lower reload latency.
#pragma once

#include <cstdint>

#include "sc/bitstream.hpp"
#include "sc/rng_source.hpp"

namespace geo::sc {

// The bit-arrival schedule shared by the SC model and the architecture
// pipeline simulator.
struct ProgressiveSchedule {
  unsigned value_bits = 8;   // bits held in memory per value
  unsigned lfsr_bits = 8;    // generator width (= bits actually needed)
  unsigned group_bits = 2;   // bits loaded per beat
  unsigned beat_cycles = 2;  // cycles between beats after the first

  bool operator==(const ProgressiveSchedule&) const = default;

  // Bits that must be loaded in total (truncation: never more than the
  // LFSR needs).
  unsigned bits_to_load() const noexcept {
    return lfsr_bits < value_bits ? lfsr_bits : value_bits;
  }

  // Bits available at the start of cycle t (t = 0 is the first generation
  // cycle; the first group is already buffered then).
  unsigned loaded_bits(std::uint64_t t) const noexcept;

  // The comparator value an SNG sees for `value` (< 2^value_bits) with only
  // its top `loaded` bits buffered is (value >> right) << left: the
  // unloaded low bits read as zero, and the result is expressed in the
  // lfsr_bits domain (low bits the LFSR cannot resolve are truncated).
  struct Visible {
    unsigned right = 0, left = 0;
    std::uint32_t of(std::uint32_t value) const noexcept {
      return (value >> right) << left;
    }
  };
  Visible visible(unsigned loaded) const noexcept {
    const unsigned kept = loaded > lfsr_bits ? lfsr_bits : loaded;
    return {value_bits - loaded, lfsr_bits - kept};
  }

  // First cycle at which the value is fully loaded (generation exact from
  // here on, given a matched LFSR).
  std::uint64_t full_load_cycle() const noexcept;

  // Number of memory beats needed to deliver one value.
  unsigned beats() const noexcept {
    return (bits_to_load() + group_bits - 1) / group_bits;
  }

  // Beats a *normal* (non-progressive) SNG must wait before generation can
  // start: the full value, delivered over the same port.
  unsigned normal_start_beats() const noexcept {
    return (value_bits + group_bits - 1) / group_bits;
  }

  // Reload-latency advantage of progressive generation (the paper's 4x:
  // start after 1 beat instead of value_bits / group_bits beats).
  double reload_latency_gain() const noexcept {
    return static_cast<double>(normal_start_beats());
  }
};

// A stochastic number generator with progressive value loading. The
// comparator sees the value with only the currently loaded MSBs; unloaded
// low bits read as zero, so early output bits may under-fire — by at most
// one part in 2^loaded per cycle.
class ProgressiveSng {
 public:
  ProgressiveSng(RngKind kind, const SeedSpec& spec,
                 const ProgressiveSchedule& schedule);

  const ProgressiveSchedule& schedule() const noexcept { return schedule_; }

  // Starts generation of a new value (given at full value_bits precision).
  // Resets the RNG so deterministic sources replay.
  void begin(std::uint32_t value);

  // Reinitializes the underlying source exactly as constructing a fresh
  // ProgressiveSng from `spec` (same schedule) would — the allocation-free
  // reuse path for per-stream loops. The spec width must still match the
  // schedule's lfsr_bits.
  void reseed(const SeedSpec& spec);

  // Comparator value currently visible (truncated to lfsr_bits).
  std::uint32_t effective_value() const noexcept;

  unsigned loaded_bits() const noexcept {
    return schedule_.loaded_bits(cycle_);
  }

  // Emits one bit and advances both the RNG and the load schedule.
  bool tick();

  // Generates a full stream of `length` bits for `value`.
  Bitstream generate(std::uint32_t value, std::size_t length);

  // Reference: what a non-progressive SNG (same source, fully loaded value)
  // would generate. Identical to generate() from full_load_cycle() onward.
  Bitstream generate_normal(std::uint32_t value, std::size_t length);

 private:
  ProgressiveSchedule schedule_;
  std::unique_ptr<RngSource> source_;
  std::uint32_t value_ = 0;  // full value_bits-wide value
  std::uint64_t cycle_ = 0;
};

}  // namespace geo::sc
