#include "sc/progressive.hpp"

#include <stdexcept>

namespace geo::sc {

unsigned ProgressiveSchedule::loaded_bits(std::uint64_t t) const noexcept {
  const unsigned target = bits_to_load();
  const std::uint64_t beats_done = 1 + t / beat_cycles;  // first beat at t=0
  const std::uint64_t bits = beats_done * group_bits;
  return bits >= target ? target : static_cast<unsigned>(bits);
}

std::uint64_t ProgressiveSchedule::full_load_cycle() const noexcept {
  // Smallest t with loaded_bits(t) == bits_to_load().
  const unsigned target = bits_to_load();
  const unsigned beats_needed = (target + group_bits - 1) / group_bits;
  return static_cast<std::uint64_t>(beats_needed - 1) * beat_cycles;
}

ProgressiveSng::ProgressiveSng(RngKind kind, const SeedSpec& spec,
                               const ProgressiveSchedule& schedule)
    : schedule_(schedule), source_(make_source(kind, spec)) {
  if (schedule_.lfsr_bits != source_->bits())
    throw std::invalid_argument(
        "ProgressiveSng: schedule lfsr_bits must match source width");
  if (schedule_.group_bits == 0 || schedule_.beat_cycles == 0)
    throw std::invalid_argument("ProgressiveSng: degenerate schedule");
}

void ProgressiveSng::reseed(const SeedSpec& spec) {
  if (schedule_.lfsr_bits != spec.bits)
    throw std::invalid_argument(
        "ProgressiveSng: reseed width must match schedule lfsr_bits");
  source_->reseed(spec);
}

void ProgressiveSng::begin(std::uint32_t value) {
  const std::uint32_t max = (1u << schedule_.value_bits) - 1u;
  value_ = value > max ? max : value;
  cycle_ = 0;
  source_->reset();
}

std::uint32_t ProgressiveSng::effective_value() const noexcept {
  return schedule_.visible(loaded_bits()).of(value_);
}

bool ProgressiveSng::tick() {
  const std::uint32_t eff = effective_value();
  ++cycle_;
  const std::uint32_t r = source_->next();
  return eff != 0 && r <= eff;
}

Bitstream ProgressiveSng::generate(std::uint32_t value, std::size_t length) {
  begin(value);
  Bitstream out(length);
  for (std::size_t i = 0; i < length; ++i)
    if (tick()) out.set(i, true);
  return out;
}

Bitstream ProgressiveSng::generate_normal(std::uint32_t value,
                                          std::size_t length) {
  begin(value);
  const std::uint32_t eff =
      schedule_.visible(schedule_.bits_to_load()).of(value_);
  Bitstream out(length);
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint32_t r = source_->next();
    if (eff != 0 && r <= eff) out.set(i, true);
  }
  return out;
}

}  // namespace geo::sc
