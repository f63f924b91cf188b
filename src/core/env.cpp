#include "core/env.hpp"

#include <charconv>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

#include "telemetry/journal.hpp"

namespace geo::core {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::optional<std::uint64_t> global_seed() {
  static const std::optional<std::uint64_t> seed = []() -> std::optional<std::uint64_t> {
    const char* v = std::getenv("GEO_SEED");
    if (v == nullptr || v[0] == '\0') return std::nullopt;
    std::uint64_t parsed = 0;
    const char* end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    if (ec != std::errc() || ptr != end) {
      reject_knob("GEO_SEED", v, "is not a uint64");
      return std::nullopt;
    }
    return parsed;
  }();
  return seed;
}

std::uint64_t seed_or(std::uint64_t fallback, std::string_view domain) {
  const std::optional<std::uint64_t> master = global_seed();
  if (!master.has_value()) return fallback;
  // FNV-1a over the domain, folded with the master seed.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : domain) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return mix64(*master ^ h);
}

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  if (text.empty()) return std::nullopt;
  T parsed{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return parsed;
}

}  // namespace

void reject_knob(const char* name, const char* value, const char* what) {
  static std::mutex mu;
  static std::set<std::string>* rejected = new std::set<std::string>();
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!rejected->insert(name).second) return;
  }
  std::fprintf(stderr, "[geo] %s='%s' %s; ignored\n", name, value, what);
  if (auto& journal = telemetry::Journal::instance(); journal.enabled())
    journal.record("config.invalid", name, {}, what);
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_whole<std::int64_t>(text);
}

std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  const std::optional<std::int64_t> parsed = parse_int(v);
  const char* what = nullptr;
  if (!parsed.has_value())
    what = "is not an integer";
  else if (*parsed < lo || *parsed > hi)
    what = "is out of range";
  if (what != nullptr) {
    reject_knob(name, v, what);
    return fallback;
  }
  return *parsed;
}

std::optional<std::int64_t> parse_size(std::string_view text,
                                       std::int64_t unit) {
  if (text.empty() || unit <= 0) return std::nullopt;
  // Split off a trailing alphabetic suffix; the rest must be a whole
  // non-negative integer.
  std::size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits])))
    ++digits;
  if (digits == 0) return std::nullopt;
  const std::optional<std::uint64_t> value =
      parse_whole<std::uint64_t>(text.substr(0, digits));
  if (!value.has_value()) return std::nullopt;
  std::string suffix;
  for (const char c : text.substr(digits))
    suffix.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  std::int64_t mult = unit;
  if (suffix == "b") {
    mult = 1;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    mult = 1ll << 10;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    mult = 1ll << 20;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    mult = 1ll << 30;
  } else if (!suffix.empty()) {
    return std::nullopt;
  }
  if (*value != 0 &&
      *value > static_cast<std::uint64_t>(INT64_MAX / mult))
    return std::nullopt;  // overflow
  return static_cast<std::int64_t>(*value) * mult;
}

std::int64_t env_size(const char* name, std::int64_t fallback_bytes,
                      std::int64_t unit, std::int64_t lo, std::int64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback_bytes;
  const std::optional<std::int64_t> parsed = parse_size(v, unit);
  const char* what = nullptr;
  if (!parsed.has_value())
    what = "is not a size (want <uint>[K|M|G[B]|KiB|MiB|GiB])";
  else if (*parsed < lo || *parsed > hi)
    what = "is out of range";
  if (what != nullptr) {
    reject_knob(name, v, what);
    return fallback_bytes;
  }
  return *parsed;
}

}  // namespace geo::core
