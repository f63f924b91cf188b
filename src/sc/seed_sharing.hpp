// RNG seed-sharing policies (Sec. II-A).
//
// GEO shares stream-generator seeds to shrink area and, crucially, to make
// the generation error *deterministic and learnable*:
//   - none:     every SNG gets its own seed               (baseline)
//   - moderate: all kernels of a layer share one seed set (GEO's choice —
//               a weight's seed depends on its position inside the kernel,
//               not on which kernel it belongs to)
//   - extreme:  all rows of all kernels share one set     (a weight's seed
//               depends only on its position within a kernel row; streams
//               inside one dot product become correlated and accuracy
//               collapses)
//
// Seeds are handed out *sequentially* per distinct generator id, cycling
// through the nonzero LFSR state space and then through alternate
// maximal-length characteristic polynomials. When a layer needs more
// generators than there are (seed, polynomial) pairs — the paper's "limit of
// availability of unique RNG seeds" — seeds genuinely repeat, and the
// resulting correlation is part of what training must learn.
#pragma once

#include <cstdint>
#include <vector>

#include "sc/rng_source.hpp"

namespace geo::sc {

enum class Sharing { kNone, kModerate, kExtreme };

const char* to_string(Sharing sharing) noexcept;

// Position of one weight inside a layer's filter bank (Cout, Cin, Kh, Kw).
struct WeightPos {
  int kernel = 0;  // output channel
  int cin = 0;
  int kh = 0;
  int kw = 0;
};

// Filter-bank extents, needed to linearize positions into seed indices.
struct KernelExtents {
  int cout = 1;
  int cin = 1;
  int kh = 1;
  int kw = 1;
};

class SeedAllocator {
 public:
  // `layer_salt` rotates the seed space per layer so different layers use
  // different generators; `bits` is the LFSR width (= log2 stream length).
  SeedAllocator(Sharing sharing, unsigned bits, const KernelExtents& extents,
                std::uint64_t layer_salt);

  Sharing sharing() const noexcept { return sharing_; }
  unsigned bits() const noexcept { return bits_; }

  // Seed for a weight stream generator. At a given sharing level the seed
  // depends only on the coordinates that level distinguishes.
  SeedSpec weight(const WeightPos& pos) const {
    return weight_spec(weight_id(pos.kernel,
                                 (pos.cin * ext_.kh + pos.kh) * ext_.kw +
                                     pos.kw));
  }

  // Generator id, in [0, weight_ids()), of the weight in output channel
  // `kernel` at tap = (cin * kh + kh_pos) * kw + kw_pos. Weights with equal
  // ids share one generator, so a bank builder resolves each id once.
  std::size_t weight_id(int kernel, int tap) const;

  // Seed of generator `id`.
  SeedSpec weight_spec(std::size_t id) const { return spec_for_index(id); }

  // Seed for an activation stream generator (indexed by buffer slot).
  // Activation seeds are allocated from the top of the seed space, weights
  // from the bottom, so the two only collide when a layer exhausts the
  // space.
  SeedSpec activation(std::size_t index) const {
    return activation_spec(activation_id(index));
  }

  // Generator id, in [0, capacity()), of the activation in buffer slot
  // `index`: slots wrap around the capacity, so slots with equal ids share
  // one generator and a layer of n slots draws on min(n, capacity()) ids.
  std::size_t activation_id(std::size_t index) const {
    return index % capacity();
  }

  // Seed of activation generator `id`.
  SeedSpec activation_spec(std::size_t id) const {
    return spec_for_index(capacity() - 1 - id);
  }

  // Number of distinct generator ids the weight side needs at this level.
  std::size_t weight_ids() const noexcept;

  // Number of distinct (seed, polynomial) pairs available at this width.
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  SeedSpec spec_for_index(std::uint64_t index) const;

  Sharing sharing_;
  unsigned bits_;
  KernelExtents ext_;
  std::uint64_t layer_salt_;
  std::vector<std::uint32_t> taps_;  // alternate maximal polynomials
  std::size_t capacity_ = 0;
};

}  // namespace geo::sc
