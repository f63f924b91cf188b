#include "sc/seed_sharing.hpp"

namespace geo::sc {

namespace {
// How many alternate polynomials to pre-compute per width. Real designs
// hard-wire a handful; 6 already gives 6 * (2^n - 1) generator ids.
constexpr unsigned kMaxPolys = 6;
}  // namespace

const char* to_string(Sharing sharing) noexcept {
  switch (sharing) {
    case Sharing::kNone: return "none";
    case Sharing::kModerate: return "moderate";
    case Sharing::kExtreme: return "extreme";
  }
  return "?";
}

SeedAllocator::SeedAllocator(Sharing sharing, unsigned bits,
                             const KernelExtents& extents,
                             std::uint64_t layer_salt)
    : sharing_(sharing), bits_(bits), ext_(extents), layer_salt_(layer_salt) {
  // Searching for maximal polynomials is cheap at SNG widths (4-10 bits);
  // cache them once per allocator.
  taps_ = Lfsr::find_maximal_taps(bits, kMaxPolys);
  capacity_ = static_cast<std::size_t>((1u << bits_) - 1u) * taps_.size();
}

SeedSpec SeedAllocator::spec_for_index(std::uint64_t index) const {
  const std::uint32_t seed_space = (1u << bits_) - 1u;  // nonzero states
  // The layer salt rotates the whole space so layers don't reuse the same
  // generators for the same positions.
  const std::uint64_t rotated =
      (index + layer_salt_ * 97ull) % (seed_space * taps_.size());
  SeedSpec spec;
  spec.bits = bits_;
  // Interleave polynomials first, then seeds: neighboring generators get
  // *different* characteristic polynomials. Phase shifts of one m-sequence
  // do not decorrelate comparator outputs well, so polynomial diversity
  // inside a dot product matters more than seed diversity (see the
  // ablation_ldseq bench).
  spec.taps = taps_[rotated % taps_.size()];
  spec.seed = 1u + static_cast<std::uint32_t>(
                       (rotated / taps_.size()) % seed_space);
  return spec;
}

std::size_t SeedAllocator::weight_id(int kernel, int tap) const {
  // The id encodes exactly the coordinates that distinguish generators at
  // this sharing level; everything left out is, by construction, shared.
  // Consecutive positions get consecutive ids, so seeds inside one kernel
  // are distinct as long as the space is not exhausted.
  switch (sharing_) {
    case Sharing::kNone:
      return static_cast<std::size_t>(kernel) * ext_.cin * ext_.kh *
                 ext_.kw +
             static_cast<std::size_t>(tap);
    case Sharing::kModerate:
      // Same seed set for every kernel: the id ignores the kernel.
      return static_cast<std::size_t>(tap);
    case Sharing::kExtreme:
      // Same seed set for every row of every kernel: only the position
      // within a kernel row survives.
      return static_cast<std::size_t>(tap % ext_.kw);
  }
  return 0;
}

std::size_t SeedAllocator::weight_ids() const noexcept {
  switch (sharing_) {
    case Sharing::kNone:
      return static_cast<std::size_t>(ext_.cout) * ext_.cin * ext_.kh *
             ext_.kw;
    case Sharing::kModerate:
      return static_cast<std::size_t>(ext_.cin) * ext_.kh * ext_.kw;
    case Sharing::kExtreme:
      return static_cast<std::size_t>(ext_.kw);
  }
  return 0;
}

}  // namespace geo::sc
