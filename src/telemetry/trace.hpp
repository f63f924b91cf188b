// Chrome trace-event emission (chrome://tracing / Perfetto "JSON object
// format") plus the ScopedTimer span API the instrumented layers use.
//
// Tracing is OFF unless `GEO_TRACE=<path>` is set in the environment (or a
// test calls `Tracer::instance().enable(path)`); the disabled path is a
// single relaxed atomic load per span, so instrumentation can stay in hot
// code unconditionally. Buffered events are written at process exit, or
// earlier via `flush()` / `telemetry::shutdown()`.
//
// Recording is sharded: each thread appends to its own buffer under a
// per-shard mutex that is uncontended except while a flush drains it, so
// worker threads never serialize on a global lock per event. Flow events
// (`flow_out` / `flow_in`) draw Perfetto arrows from a submitting span to
// the spans it fans out, across threads and steals; `set_thread_name` /
// `set_process_name` become `ph:"M"` metadata so tracks read
// `geo-worker-N` instead of bare tids and multiple binaries don't collide
// on one pid.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace geo::telemetry {

// One numeric span argument, rendered into the trace event's "args" object.
struct TraceArg {
  const char* key;
  double value;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Starts (or redirects) recording to `path`. Buffered events are kept.
  void enable(std::string path);
  // Stops recording and drops any buffered events (thread/process names are
  // kept; they describe the process, not a recording session).
  void disable();

  // Duration-begin / duration-end ("B"/"E") events on the calling thread.
  void begin(std::string_view name, std::string_view category,
             std::initializer_list<TraceArg> args = {});
  // `args` land on the end event; trace viewers merge them into the span's.
  void end(std::string_view name, std::string_view category,
           std::span<const TraceArg> args = {});
  // Instant ("i") event.
  void instant(std::string_view name, std::string_view category,
               std::initializer_list<TraceArg> args = {});
  // Counter ("C") event: one sampled series value.
  void counter(std::string_view name, double value);

  // Flow events: a "s" (flow start) recorded inside a span on the
  // submitting thread, matched by "f" (flow finish, binding-point
  // "enclosing") events recorded inside the fanned-out spans. Perfetto
  // renders these as arrows from the parent span to each child span, even
  // when a steal moved the child to another worker. Allocate ids with
  // next_flow_id(); name/category must match across the s/f pair.
  std::uint64_t next_flow_id() {
    return next_flow_.fetch_add(1, std::memory_order_relaxed);
  }
  void flow_out(std::string_view name, std::string_view category,
                std::uint64_t flow_id);
  void flow_in(std::string_view name, std::string_view category,
               std::uint64_t flow_id);

  // Names the calling thread's track / this process in the rendered trace
  // (synthesized as ph:"M" metadata; not counted by event_count()). Cheap
  // enough to call unconditionally at thread start.
  void set_thread_name(std::string_view name);
  void set_process_name(std::string_view name);

  std::size_t event_count() const;

  // Renders the buffered events as a Chrome-trace JSON document.
  std::string render() const;

  // Writes the buffered events to the configured path and clears the
  // buffer. Events recorded concurrently with a flush are never dropped:
  // each shard is copied and cleared under its own lock, so a racing
  // record lands either in the written document or in the retained buffer.
  // No-op (returns true) when there is nothing new to write.
  bool flush();

  ~Tracer();

 private:
  Tracer();  // reads GEO_TRACE

  struct Event {
    double ts_us;
    char phase;
    std::uint64_t flow_id;  // nonzero only for "s"/"f" events
    std::string name;
    std::string category;
    std::string args_json;  // pre-rendered "args" object, may be empty
  };

  // Per-thread event buffer. Owned by the tracer (not the thread) so
  // buffered events survive thread exit until the next flush.
  struct Shard {
    explicit Shard(std::uint32_t t) : tid(t) {}
    const std::uint32_t tid;
    std::mutex mu;  // guards events + thread_name; uncontended off-flush
    std::vector<Event> events;
    std::string thread_name;
  };

  struct ShardSnapshot {
    std::uint32_t tid;
    std::string thread_name;
    std::vector<Event> events;
  };

  Shard& local_shard();
  void record(char phase, std::string_view name, std::string_view category,
              std::span<const TraceArg> args, std::uint64_t flow_id = 0);
  double now_us() const;
  std::vector<ShardSnapshot> collect(bool drain) const;
  std::string emit(const std::vector<ShardSnapshot>& shards) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_flow_{1};
  mutable std::mutex mu_;  // guards path_, process_name_, shards_ growth
  std::string path_;
  std::string process_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::chrono::steady_clock::time_point epoch_;
};

// RAII span: observes elapsed seconds into `MetricsRegistry` histogram
// `name` and, when tracing is enabled, brackets the scope with B/E events.
// For hot loops, pre-fetch the histogram once and use the second overload.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, const char* category = "geo",
                       std::initializer_list<TraceArg> args = {});
  ScopedTimer(Histogram& histogram, const char* name,
              const char* category = "geo",
              std::initializer_list<TraceArg> args = {});
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Adds an argument known only once the work is done (recorded on the end
  // event; `key` must outlive the timer). A no-op when not tracing.
  void end_arg(const char* key, double value);

 private:
  const char* name_;
  const char* category_;
  Histogram* histogram_;
  bool tracing_;
  std::vector<TraceArg> end_args_;
  std::chrono::steady_clock::time_point start_;
};

// Flushes the trace buffer (if tracing), the event journal (if
// GEO_JOURNAL is set), and exports metrics (if GEO_METRICS is set). Safe
// to call multiple times; also runs implicitly at process exit.
void shutdown();

}  // namespace geo::telemetry
