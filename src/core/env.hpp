// Process-wide environment knobs: RNG seeding (GEO_SEED) and checked
// integer parsing for every numeric GEO_* variable.
//
// Every stochastic knob in the stack — the trainer's shuffle order, the
// bench model initializers, and the fault model's per-site RNG — derives its
// state through `seed_or`, so one documented environment variable reseeds
// the whole pipeline coherently:
//
//   GEO_SEED=<uint64>   master seed; unset keeps each component's historical
//                       default (bit-identical to builds before this knob)
//
// Components pass a `domain` string so different consumers of the same
// master seed stay decorrelated.
//
// Integer knobs (GEO_THREADS, GEO_SERVE_*, GEO_STREAM_TABLE,
// GEO_CRASH_AFTER_EPOCH, the GEO_BENCH_* sizes) go through `env_int`, byte
// sizes through `env_size`: a strict whole-string parse where a malformed or
// out-of-range value fails closed through `reject_knob` (one stderr warning
// and one `config.invalid` journal entry per variable) and the default is
// used. Silent `atoi` fallbacks (garbage -> 0, UB on overflow) are a bug;
// don't add new ones.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace geo::core {

// The GEO_SEED value, parsed once per process (empty/garbage counts as
// unset; a parse failure is rejected through `reject_knob`).
std::optional<std::uint64_t> global_seed();

// `fallback` when GEO_SEED is unset; otherwise a 64-bit value derived
// deterministically from (GEO_SEED, domain).
std::uint64_t seed_or(std::uint64_t fallback, std::string_view domain);

// Stateless 64-bit mix (splitmix64 finalizer) — shared by the seed
// derivation and the fault model's per-site RNG.
std::uint64_t mix64(std::uint64_t x) noexcept;

// Strict whole-string base-10 parses: no leading/trailing junk, no empty
// input; nullopt on any failure (including overflow). `parse_int` accepts a
// leading '-'.
std::optional<std::uint64_t> parse_uint(std::string_view text);
std::optional<std::int64_t> parse_int(std::string_view text);

// Fail-closed report of a rejected knob value: the first rejection of each
// variable warns on stderr and records a `config.invalid` journal entry (a
// sweep that silently ran on defaults must show up in postmortems); later
// rejections of the same variable stay quiet.
void reject_knob(const char* name, const char* value, const char* what);

// Checked integer environment knob. Returns `fallback` when `name` is unset
// or empty. A malformed value, or one outside [lo, hi], is rejected through
// `reject_knob` and treated as unset. The variable is re-read on every call
// so tests can vary it; only the report is deduplicated.
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t lo = INT64_MIN, std::int64_t hi = INT64_MAX);

// Strict whole-string byte-size parse: a non-negative integer with an
// optional binary suffix (K/KB/KiB, M/MB/MiB, G/GB/GiB; case-insensitive,
// 1024-based). A bare number is multiplied by `unit` (1 = bytes), so knobs
// whose name bakes in a unit — GEO_STREAM_TABLE_MB, GEO_STORE_CACHE_MB —
// keep their historical plain-number meaning while newly accepting explicit
// suffixes. nullopt on any malformed input or multiply overflow.
std::optional<std::int64_t> parse_size(std::string_view text,
                                       std::int64_t unit = 1);

// Checked byte-size environment knob built on parse_size. Returns
// `fallback_bytes` when unset/empty. A malformed value, or one outside
// [lo, hi] bytes, is rejected through `reject_knob` and treated as unset.
std::int64_t env_size(const char* name, std::int64_t fallback_bytes,
                      std::int64_t unit = 1, std::int64_t lo = 0,
                      std::int64_t hi = INT64_MAX);

}  // namespace geo::core
