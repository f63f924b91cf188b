#include "store/weight_store.hpp"

#include <cstring>
#include <utility>

#include "core/env.hpp"
#include "store/block_file.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace geo::store {

namespace {

// Telemetry mirrors, hoisted once (registry lookups take a mutex).
struct StoreCounters {
  telemetry::Counter& loads;
  telemetry::Counter& load_blocks;
  telemetry::Counter& load_bytes;
  telemetry::Counter& cache_hits;
  telemetry::Counter& rereads;
  telemetry::Counter& crc_failures;
  telemetry::Counter& quarantines;
  telemetry::Counter& rebuilds;
  telemetry::Counter& fallback_blocks;
  telemetry::Counter& evictions;
  telemetry::Counter& scrub_passes;
};

StoreCounters& counters() {
  auto& m = telemetry::MetricsRegistry::instance();
  static StoreCounters c{m.counter("store.loads"),
                         m.counter("store.load_blocks"),
                         m.counter("store.load_bytes"),
                         m.counter("store.cache_hits"),
                         m.counter("store.rereads"),
                         m.counter("store.crc_failures"),
                         m.counter("store.quarantines"),
                         m.counter("store.rebuilds"),
                         m.counter("store.fallback_blocks"),
                         m.counter("store.evictions"),
                         m.counter("store.scrub_passes")};
  return c;
}

// The modeled external-memory transfer rate: one 64-byte beat per cycle.
// Deterministic by construction — the ledger must gate tightly in CI, so
// wall-clock never feeds it.
constexpr std::int64_t kBytesPerCycle = 64;

std::int64_t modeled_load_cycles(std::int64_t bytes) {
  return (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
}

// Stable injection-site key for (layer, shard): survives rebuilds, so a
// defect-model io_rot fault keeps biting the same block through any number
// of rewrites — by design, that is what drains the ladder to fallback.
std::uint64_t shard_site(const std::string& layer, std::size_t shard) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : layer) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return core::mix64(h ^ (static_cast<std::uint64_t>(shard) << 32));
}

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == '/' || c == '\\' || c == ':') c = '_';
  return out;
}

void journal_event(const char* kind, const std::string& label,
                   std::initializer_list<telemetry::JournalArg> args = {},
                   std::string_view note = {}) {
  if (auto& journal = telemetry::Journal::instance(); journal.enabled())
    journal.record(kind, label, args, note);
}

}  // namespace

// ---- StoreOptions ---------------------------------------------------------

StoreOptions StoreOptions::from_env(std::string dir) {
  StoreOptions o;
  o.dir = std::move(dir);
  o.cache_bytes =
      core::env_size("GEO_STORE_CACHE_MB", o.cache_bytes, 1ll << 20, 0);
  o.block_bytes = core::env_size("GEO_STORE_BLOCK_KB", o.block_bytes,
                                 1ll << 10, 4, 1ll << 30);
  o.shard_bytes = core::env_size("GEO_STORE_SHARD_MB", o.shard_bytes,
                                 1ll << 20, 4, 1ll << 40);
  o.rereads = static_cast<int>(core::env_int("GEO_STORE_REREADS", o.rereads,
                                             0, 16));
  o.reread_backoff =
      core::env_int("GEO_STORE_BACKOFF", o.reread_backoff, 0, 1ll << 32);
  return o;
}

geo::Status StoreOptions::validate() const {
  if (dir.empty())
    return geo::Status::invalid_argument("store: options.dir is empty");
  if (block_bytes < 4 || block_bytes % 4 != 0)
    return geo::Status::invalid_argument(
        "store: block_bytes must be a positive multiple of 4, got " +
        std::to_string(block_bytes));
  if (shard_bytes < block_bytes)
    return geo::Status::invalid_argument(
        "store: shard_bytes (" + std::to_string(shard_bytes) +
        ") must be >= block_bytes (" + std::to_string(block_bytes) + ")");
  if (shard_bytes % 4 != 0)
    return geo::Status::invalid_argument(
        "store: shard_bytes must be a multiple of 4, got " +
        std::to_string(shard_bytes));
  if (rereads < 0 || rereads > 16)
    return geo::Status::out_of_range("store: rereads must be in [0,16], got " +
                                     std::to_string(rereads));
  if (reread_backoff < 0)
    return geo::Status::out_of_range("store: reread_backoff must be >= 0");
  if (cache_bytes < 0)
    return geo::Status::out_of_range("store: cache_bytes must be >= 0");
  return geo::Status();
}

// ---- WeightStore ----------------------------------------------------------

WeightStore::WeightStore(StoreOptions opts)
    : opts_(std::move(opts)), config_status_(opts_.validate()) {}

geo::Status WeightStore::add_layer(const std::string& name,
                                   std::span<const float> data,
                                   SourceFn source) {
  if (!config_status_.ok()) return config_status_;
  if (name.empty())
    return geo::Status::invalid_argument("store: layer name is empty");
  std::lock_guard lock(mu_);
  if (layers_.count(name) != 0)
    return geo::Status::invalid_argument("store: layer '" + name +
                                         "' already added");
  Layer layer;
  layer.floats = data.size();
  const std::uint64_t shard_floats =
      static_cast<std::uint64_t>(opts_.shard_bytes) / 4;
  std::uint64_t pos = 0;
  std::size_t idx = 0;
  while (pos < data.size() || (data.empty() && idx == 0)) {
    Shard shard;
    shard.first_float = pos;
    shard.floats = std::min<std::uint64_t>(shard_floats, data.size() - pos);
    shard.path = opts_.dir + "/" + sanitize(name) + ".s" +
                 std::to_string(idx) + ".geostor";
    shard.fault_site = shard_site(name, idx);
    if (auto s = write_block_file(
            shard.path, data.subspan(pos, shard.floats), opts_.block_bytes,
            shard.fault_site);
        !s.ok())
      return s;
    pos += shard.floats;
    layer.shards.push_back(std::move(shard));
    ++idx;
    if (data.empty()) break;
  }
  if (source != nullptr) {
    layer.source = std::move(source);
  } else {
    // Safe default: retain a resident copy, so rebuild and fallback always
    // have somewhere to go (the "never silence" contract needs a source).
    auto copy = std::make_shared<std::vector<float>>(data.begin(), data.end());
    layer.source = [copy]() -> geo::StatusOr<std::vector<float>> {
      return *copy;
    };
  }
  layers_.emplace(name, std::move(layer));
  return geo::Status();
}

geo::StatusOr<Pinned> WeightStore::pin(const std::string& name) {
  if (!config_status_.ok()) return config_status_;
  std::lock_guard lock(mu_);
  auto it = layers_.find(name);
  if (it == layers_.end())
    return geo::Status::invalid_argument("store: unknown layer '" + name +
                                         "'");
  if (auto cit = cache_.find(name); cit != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, cit->second.lru_it);
    counters().cache_hits.add(1);
    Pinned p;
    p.data_ = cit->second.data;
    p.stats_.cache_hit = true;
    p.stats_.bytes = static_cast<std::int64_t>(p.data_->size() * 4);
    return p;
  }
  return assemble_locked(name, it->second);
}

geo::StatusOr<Pinned> WeightStore::assemble_locked(const std::string& name,
                                                   Layer& layer) {
  auto out = std::make_shared<std::vector<float>>(layer.floats);
  LoadStats stats;
  std::vector<float> source_cache;
  for (std::size_t s = 0; s < layer.shards.size(); ++s) {
    if (auto st = load_shard_locked(name, layer, s,
                                    out->data() + layer.shards[s].first_float,
                                    stats, &source_cache);
        !st.ok())
      return st;
  }
  stats.io_stall_cycles += modeled_load_cycles(stats.bytes);
  counters().loads.add(1);
  counters().load_blocks.add(stats.blocks);
  counters().load_bytes.add(stats.bytes);
  journal_event("store.load", name,
                {{"blocks", static_cast<double>(stats.blocks)},
                 {"bytes", static_cast<double>(stats.bytes)},
                 {"rereads", static_cast<double>(stats.rereads)},
                 {"fallback_blocks",
                  static_cast<double>(stats.fallback_blocks)}});
  cache_insert_locked(name, out);
  Pinned p;
  p.data_ = std::move(out);
  p.stats_ = stats;
  return p;
}

geo::Status WeightStore::source_floats_locked(const std::string& name,
                                              const Layer& layer,
                                              std::vector<float>* cache) {
  if (!cache->empty() || layer.floats == 0) return geo::Status();
  if (layer.source == nullptr)
    return geo::Status::failed_precondition(
        "store: layer '" + name + "' has no source provider");
  auto src = layer.source();
  if (!src.ok()) return src.status();
  if (src->size() != layer.floats)
    return geo::Status::data_loss(
        "store: source for '" + name + "' returned " +
        std::to_string(src->size()) + " floats, layer has " +
        std::to_string(layer.floats));
  *cache = *std::move(src);
  return geo::Status();
}

geo::Status WeightStore::load_shard_locked(const std::string& name,
                                           Layer& layer,
                                           std::size_t shard_idx, float* dst,
                                           LoadStats& stats,
                                           std::vector<float>* source_cache) {
  Shard& shard = layer.shards[shard_idx];
  const std::uint64_t shard_bytes = shard.floats * 4;
  auto src_fallback = [&](std::uint64_t byte_off,
                          std::uint64_t len) -> geo::Status {
    if (auto s = source_floats_locked(name, layer, source_cache); !s.ok())
      return s;
    std::memcpy(reinterpret_cast<char*>(dst) + byte_off,
                reinterpret_cast<const char*>(source_cache->data()) +
                    shard.first_float * 4 + byte_off,
                len);
    return geo::Status();
  };

  // One rebuild attempt per shard per load: under blanket corruption
  // (io_rot=1 on every block) the first failing block pays for the rewrite
  // and the rest fall straight back to the source.
  bool rebuilt_this_load = false;
  auto rebuild_shard = [&]() -> geo::Status {
    if (auto s = source_floats_locked(name, layer, source_cache); !s.ok())
      return s;
    const std::span<const float> slice(source_cache->data() +
                                           shard.first_float,
                                       shard.floats);
    if (auto s = write_block_file(shard.path, slice, opts_.block_bytes,
                                  shard.fault_site);
        !s.ok())
      return s;
    ++stats.rebuilds;
    counters().rebuilds.add(1);
    journal_event("store.rebuild", name,
                  {{"shard", static_cast<double>(shard_idx)}});
    rebuilt_this_load = true;
    return geo::Status();
  };

  auto open_file = [&]() -> geo::StatusOr<BlockFile> {
    return BlockFile::open(shard.path);
  };

  auto opened = open_file();
  if (!opened.ok()) {
    // A shard that won't even open (torn write, missing file) skips the
    // reread rung — reopening the same bytes cannot help — and goes
    // straight to rebuild, then whole-shard fallback.
    ++stats.crc_failures;
    counters().crc_failures.add(1);
    journal_event("store.crc_fail", name,
                  {{"shard", static_cast<double>(shard_idx)}},
                  opened.status().message());
    if (auto s = rebuild_shard(); !s.ok()) return s;
    opened = open_file();
    if (!opened.ok()) {
      journal_event("store.fallback", name,
                    {{"shard", static_cast<double>(shard_idx)}},
                    "shard unopenable after rebuild");
      const std::int64_t blocks = static_cast<std::int64_t>(
          (shard_bytes + opts_.block_bytes - 1) / opts_.block_bytes);
      stats.fallback_blocks += blocks;
      counters().fallback_blocks.add(blocks);
      return src_fallback(0, shard_bytes);
    }
  }
  BlockFile file = std::move(opened).value();

  std::vector<unsigned char> buf;
  for (std::uint32_t b = 0; b < file.block_count(); ++b) {
    const std::uint64_t byte_off =
        static_cast<std::uint64_t>(b) * file.block_bytes();
    geo::Status st = file.read_block(b, buf, shard.fault_site);
    int attempt = 0;
    while (!st.ok() && attempt < opts_.rereads) {
      ++stats.crc_failures;
      counters().crc_failures.add(1);
      if (attempt == 0)
        journal_event("store.crc_fail", name,
                      {{"shard", static_cast<double>(shard_idx)},
                       {"block", static_cast<double>(b)}},
                      st.message());
      // Bounded exponential backoff, charged as modeled stall cycles (the
      // disk isn't wall-clock in this simulator); a transient errno/short
      // read re-rolls and recovers here.
      stats.io_stall_cycles += opts_.reread_backoff << attempt;
      ++stats.rereads;
      counters().rereads.add(1);
      journal_event("store.reread", name,
                    {{"shard", static_cast<double>(shard_idx)},
                     {"block", static_cast<double>(b)},
                     {"attempt", static_cast<double>(attempt)}});
      st = file.read_block(b, buf, shard.fault_site);
      ++attempt;
    }
    if (!st.ok()) {
      // Reread budget exhausted: quarantine the block and rebuild the shard
      // from source, then give the rebuilt bytes one verification read.
      ++stats.crc_failures;
      counters().crc_failures.add(1);
      const std::uint64_t qkey =
          (static_cast<std::uint64_t>(shard_idx) << 32) | b;
      if (layer.quarantined.insert(qkey).second) {
        ++stats.quarantined;
        counters().quarantines.add(1);
        journal_event("store.quarantine", name,
                      {{"shard", static_cast<double>(shard_idx)},
                       {"block", static_cast<double>(b)}},
                      st.message());
      }
      if (!rebuilt_this_load) {
        if (auto s = rebuild_shard(); !s.ok()) return s;
        auto reopened = open_file();
        if (reopened.ok()) {
          file = std::move(reopened).value();
          st = file.read_block(b, buf, shard.fault_site);
        }
      }
      if (st.ok()) {
        layer.quarantined.erase(qkey);  // repaired for real
      } else {
        // Last rung: serve this block from the resident source. A defect-
        // model fault re-rots any rewrite, so this is where blanket
        // persistent corruption lands — degraded to resident, never wrong.
        journal_event("store.fallback", name,
                      {{"shard", static_cast<double>(shard_idx)},
                       {"block", static_cast<double>(b)}});
        ++stats.fallback_blocks;
        counters().fallback_blocks.add(1);
        if (auto s = src_fallback(byte_off, file.block_size(b)); !s.ok())
          return s;
        continue;
      }
    }
    std::memcpy(reinterpret_cast<char*>(dst) + byte_off, buf.data(),
                buf.size());
    ++stats.blocks;
    stats.bytes += static_cast<std::int64_t>(buf.size());
  }
  return geo::Status();
}

void WeightStore::cache_insert_locked(
    const std::string& name,
    std::shared_ptr<const std::vector<float>> data) {
  if (opts_.cache_bytes <= 0) return;
  const std::int64_t bytes = static_cast<std::int64_t>(data->size() * 4);
  if (auto it = cache_.find(name); it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.data = std::move(data);
    return;
  }
  lru_.push_front(name);
  cache_[name] = CacheEntry{std::move(data), lru_.begin()};
  cached_bytes_ += bytes;
  while (cached_bytes_ > opts_.cache_bytes && !lru_.empty()) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto vit = cache_.find(victim);
    cached_bytes_ -= static_cast<std::int64_t>(vit->second.data->size() * 4);
    cache_.erase(vit);
    counters().evictions.add(1);
  }
}

ScrubReport WeightStore::scrub() {
  ScrubReport report;
  if (!config_status_.ok()) return report;
  std::lock_guard lock(mu_);
  for (auto& [name, layer] : layers_) {
    ++report.layers;
    bool layer_rebuilt = false;
    for (std::size_t s = 0; s < layer.shards.size(); ++s) {
      Shard& shard = layer.shards[s];
      auto verify = [&](std::int64_t* failures) -> bool {
        auto opened = BlockFile::open(shard.path);
        if (!opened.ok()) {
          ++*failures;
          return false;
        }
        std::vector<unsigned char> buf;
        bool clean = true;
        for (std::uint32_t b = 0; b < opened->block_count(); ++b) {
          ++report.blocks;
          if (!opened->read_block(b, buf, shard.fault_site).ok()) {
            ++*failures;
            clean = false;
          }
        }
        return clean;
      };
      if (verify(&report.crc_failures)) continue;
      counters().crc_failures.add(1);
      // Dirty shard: rewrite from source, then re-verify once. Blocks still
      // failing after the rewrite (a defect-model fault re-rots them) are
      // unrecoverable on disk; pin() serves them from the source instead.
      std::vector<float> src;
      if (!source_floats_locked(name, layer, &src).ok()) {
        ++report.unrecoverable;
        continue;
      }
      const std::span<const float> slice(src.data() + shard.first_float,
                                         shard.floats);
      if (!write_block_file(shard.path, slice, opts_.block_bytes,
                            shard.fault_site)
               .ok()) {
        ++report.unrecoverable;
        continue;
      }
      ++report.shards_rebuilt;
      counters().rebuilds.add(1);
      journal_event("store.rebuild", name,
                    {{"shard", static_cast<double>(s)}}, "scrub");
      layer_rebuilt = true;
      std::int64_t still = 0;
      if (verify(&still)) {
        // Fully repaired: lift the quarantine for this shard.
        for (auto it = layer.quarantined.begin();
             it != layer.quarantined.end();)
          it = (*it >> 32) == s ? layer.quarantined.erase(it) : ++it;
      } else {
        report.unrecoverable += still;
      }
    }
    if (layer_rebuilt) {
      // Drop the cached assembly so the next pin re-reads the fresh bytes.
      if (auto cit = cache_.find(name); cit != cache_.end()) {
        cached_bytes_ -=
            static_cast<std::int64_t>(cit->second.data->size() * 4);
        lru_.erase(cit->second.lru_it);
        cache_.erase(cit);
      }
    }
  }
  counters().scrub_passes.add(1);
  journal_event(
      "store.scrub", "store",
      {{"blocks", static_cast<double>(report.blocks)},
       {"crc_failures", static_cast<double>(report.crc_failures)},
       {"shards_rebuilt", static_cast<double>(report.shards_rebuilt)},
       {"unrecoverable", static_cast<double>(report.unrecoverable)}});
  return report;
}

std::vector<std::string> WeightStore::layer_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(layers_.size());
  for (const auto& [name, layer] : layers_) names.push_back(name);
  return names;
}

std::uint64_t WeightStore::layer_floats(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0 : it->second.floats;
}

std::int64_t WeightStore::cached_bytes() const {
  std::lock_guard lock(mu_);
  return cached_bytes_;
}

}  // namespace geo::store
