#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "telemetry/export.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/json.hpp"

namespace geo::telemetry {

namespace {

std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int process_id() {
#if defined(__unix__) || defined(__APPLE__)
  static const int pid = static_cast<int>(::getpid());
  return pid;
#else
  return 1;
#endif
}

// Best-effort process name for the ph:"M" metadata; overridable via
// Tracer::set_process_name.
std::string default_process_name() {
#if defined(__linux__)
  std::ifstream comm("/proc/self/comm");
  std::string name;
  if (comm && std::getline(comm, name) && !name.empty()) return name;
#endif
  return "geo";
}

std::string args_to_json(std::span<const TraceArg> args) {
  if (args.empty()) return {};
  Json obj = Json::object();
  for (const TraceArg& a : args) obj.set(a.key, Json(a.value));
  return obj.dump(0);
}

}  // namespace

Tracer& Tracer::instance() {
  // Intentionally leaked: pool workers name their shard at worker_main
  // entry and may still be alive when main's static destructors run
  // (ThreadPool teardown is not sequenced against this translation unit),
  // so the shards must outlive every thread. The final flush that the
  // destructor used to provide runs via atexit instead — flush() only
  // takes per-shard locks, so it is safe against a late worker.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  process_name_ = default_process_name();
  // The constructing thread is almost always main; pool workers rename
  // themselves at startup, so a mislabel self-corrects.
  set_thread_name("geo-main");
  if (const char* path = std::getenv("GEO_TRACE");
      path != nullptr && path[0] != '\0')
    enable(path);
  std::atexit([] { Tracer::instance().flush(); });
}

Tracer::~Tracer() { flush(); }

void Tracer::enable(std::string path) {
  std::lock_guard lock(mu_);
  path_ = std::move(path);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  path_.clear();
  for (const auto& shard : shards_) {
    std::lock_guard shard_lock(shard->mu);
    shard->events.clear();
  }
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Shard& Tracer::local_shard() {
  // Cached per-thread shard pointer. Shards are owned by the (singleton)
  // tracer and never deallocated before process exit, so the cache cannot
  // dangle; a fresh thread starts at nullptr and registers on first use.
  thread_local Shard* cached = nullptr;
  if (cached == nullptr) {
    auto owned = std::make_unique<Shard>(current_tid());
    cached = owned.get();
    std::lock_guard lock(mu_);
    shards_.push_back(std::move(owned));
  }
  return *cached;
}

void Tracer::record(char phase, std::string_view name,
                    std::string_view category,
                    std::span<const TraceArg> args, std::uint64_t flow_id) {
  // Callers check enabled() before any of this work; the only lock taken
  // is the calling thread's own shard mutex, contended only by a
  // concurrent flush.
  const double ts = now_us();
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mu);
  shard.events.push_back(Event{ts, phase, flow_id, std::string(name),
                               std::string(category), args_to_json(args)});
}

void Tracer::begin(std::string_view name, std::string_view category,
                   std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  record('B', name, category, {args.begin(), args.size()});
}

void Tracer::end(std::string_view name, std::string_view category,
                 std::span<const TraceArg> args) {
  if (!enabled()) return;
  record('E', name, category, args);
}

void Tracer::instant(std::string_view name, std::string_view category,
                     std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  record('i', name, category, {args.begin(), args.size()});
}

void Tracer::counter(std::string_view name, double value) {
  if (!enabled()) return;
  const TraceArg arg{"value", value};
  record('C', name, "counter", {&arg, 1});
}

void Tracer::flow_out(std::string_view name, std::string_view category,
                      std::uint64_t flow_id) {
  if (!enabled()) return;
  record('s', name, category, {}, flow_id);
}

void Tracer::flow_in(std::string_view name, std::string_view category,
                     std::uint64_t flow_id) {
  if (!enabled()) return;
  record('f', name, category, {}, flow_id);
}

void Tracer::set_thread_name(std::string_view name) {
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mu);
  shard.thread_name.assign(name);
}

void Tracer::set_process_name(std::string_view name) {
  std::lock_guard lock(mu_);
  process_name_.assign(name);
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  std::lock_guard lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard shard_lock(shard->mu);
    n += shard->events.size();
  }
  return n;
}

std::vector<Tracer::ShardSnapshot> Tracer::collect(bool drain) const {
  // Shard pointers are stable once registered (the vector owns them via
  // unique_ptr), so only the list itself needs mu_.
  std::vector<Shard*> shards;
  {
    std::lock_guard lock(mu_);
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
  }
  std::vector<ShardSnapshot> out;
  out.reserve(shards.size());
  for (Shard* shard : shards) {
    std::lock_guard shard_lock(shard->mu);
    ShardSnapshot snap;
    snap.tid = shard->tid;
    snap.thread_name = shard->thread_name;
    if (drain)
      snap.events = std::move(shard->events);
    else
      snap.events = shard->events;
    if (drain) shard->events.clear();
    out.push_back(std::move(snap));
  }
  return out;
}

std::string Tracer::emit(const std::vector<ShardSnapshot>& shards) const {
  const int pid = process_id();
  std::string process_name;
  {
    std::lock_guard lock(mu_);
    process_name = process_name_;
  }

  // Merge shards into one timestamp-ordered stream. Ties break on (tid,
  // per-shard index) so the output is deterministic and each thread's B/E
  // nesting order is preserved (per-thread timestamps are monotone).
  struct Ref {
    double ts;
    std::uint32_t tid;
    std::size_t seq;
    const Event* event;
  };
  std::vector<Ref> refs;
  for (const ShardSnapshot& shard : shards)
    for (std::size_t k = 0; k < shard.events.size(); ++k)
      refs.push_back(Ref{shard.events[k].ts_us, shard.tid, k,
                         &shard.events[k]});
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.seq < b.seq;
  });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
    out += "\n";
  };

  // Metadata first: process identity, then one named track per shard that
  // asked for a name. Sort indices keep tracks in registration order and
  // distinct binaries in pid order inside Perfetto.
  comma();
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
         json_escape(process_name) + "\"}}";
  comma();
  out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":0,\"args\":{\"sort_index\":" +
         std::to_string(pid) + "}}";
  for (const ShardSnapshot& shard : shards) {
    if (shard.thread_name.empty()) continue;
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(shard.tid) +
           ",\"args\":{\"name\":\"" + json_escape(shard.thread_name) + "\"}}";
    comma();
    out += "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(shard.tid) +
           ",\"args\":{\"sort_index\":" + std::to_string(shard.tid) + "}}";
  }

  for (const Ref& ref : refs) {
    const Event& e = *ref.event;
    comma();
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.category);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(ref.tid);
    out += ",\"ts\":";
    {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
      out += buf;
    }
    if (e.phase == 's' || e.phase == 'f') {
      out += ",\"id\":";
      out += std::to_string(e.flow_id);
      if (e.phase == 'f') out += ",\"bp\":\"e\"";
    }
    if (!e.args_json.empty()) {
      out += ",\"args\":";
      out += e.args_json;
    }
    out += '}';
  }
  out += "\n]}";
  return out;
}

std::string Tracer::render() const { return emit(collect(/*drain=*/false)); }

bool Tracer::flush() {
  std::string path;
  {
    std::lock_guard lock(mu_);
    path = path_;
  }
  if (path.empty()) return true;
  if (event_count() == 0) return true;  // nothing new since the last flush
  // Draining copies-and-clears each shard under its own lock, so an event
  // recorded while the file is being written stays buffered for the next
  // flush instead of being silently discarded.
  const std::string doc = emit(collect(/*drain=*/true));
  std::ofstream os(path);
  if (!os) return false;
  os << doc << '\n';
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------

ScopedTimer::ScopedTimer(const char* name, const char* category,
                         std::initializer_list<TraceArg> args)
    : ScopedTimer(MetricsRegistry::instance().histogram(name), name, category,
                  args) {}

ScopedTimer::ScopedTimer(Histogram& histogram, const char* name,
                         const char* category,
                         std::initializer_list<TraceArg> args)
    : name_(name),
      category_(category),
      histogram_(&histogram),
      tracing_(Tracer::instance().enabled()),
      start_(std::chrono::steady_clock::now()) {
  if (tracing_) Tracer::instance().begin(name_, category_, args);
}

ScopedTimer::~ScopedTimer() {
  const auto stop = std::chrono::steady_clock::now();
  histogram_->observe(
      std::chrono::duration<double>(stop - start_).count());
  if (tracing_) Tracer::instance().end(name_, category_, end_args_);
}

void ScopedTimer::end_arg(const char* key, double value) {
  if (tracing_) end_args_.push_back({key, value});
}

void shutdown() {
  Tracer::instance().flush();
  Journal::instance().flush();
  export_metrics_if_requested(MetricsRegistry::instance());
}

}  // namespace geo::telemetry
