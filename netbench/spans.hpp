// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark's own call sites around each
// entry point it calls into the library, so the library's GEO_TRACE tracer
// stays off. Each thread owns one SpanBuffer (no locking on the record
// path); spans nest strictly, and closing a span charges its duration to its
// parent, so a span's self time is its duration minus its direct children.
// Buffers are kept in memory and written as one Chrome trace at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace netbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // covered by direct children
  int parent = -1;            // index in the same buffer, -1 = root
  int network = -1;           // network id, shared by all its spans
  int layer = -1;             // layer index, -1 outside a layer
  double queue_us = -1.0;     // serve.run only: Response::queue_us
  double exec_us = -1.0;      // serve.run only: Response::exec_us

  std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

class SpanBuffer {
 public:
  // Reserves room up front so growing the buffer does not land inside a
  // timed span.
  SpanBuffer(int tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {
    spans_.reserve(1 << 16);
  }

  int begin(const char* name, int network, int layer);
  void end(int index);
  Span& at(int index) { return spans_[static_cast<std::size_t>(index)]; }
  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  int tid_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction; a null buffer
// records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, int network, int layer = -1)
      : buf_(buf), index_(buf ? buf->begin(name, network, layer) : -1) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches the serving split of one response (serve.run spans).
  void set_serve_args(double queue_us, double exec_us) {
    if (buf_ == nullptr) return;
    buf_->at(index_).queue_us = queue_us;
    buf_->at(index_).exec_us = exec_us;
  }

 private:
  SpanBuffer* buf_;
  int index_;
};

// Writes every buffer's spans as a Chrome trace (chrome://tracing or
// Perfetto). Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers);

}  // namespace netbench
