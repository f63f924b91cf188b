#include "spans.hpp"

#include <cstdio>

namespace netbench {

int SpanBuffer::begin(const char* name, int network, int layer) {
  Span s;
  s.name = name;
  s.network = network;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanBuffer::end(int index) {
  Span& s = at(index);
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count();
  open_.pop_back();
  if (s.parent >= 0) at(s.parent).child_ns += s.end_ns - s.start_ns;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanBuffer* buf : buffers)
    for (const Span& s : buf->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"network\":%d,"
                   "\"layer\":%d,\"self_us\":%.3f",
                   first ? "" : ",", s.name, buf->tid(), s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, s.network, s.layer,
                   s.self_ns() / 1e3);
      if (s.queue_us >= 0.0)
        std::fprintf(f, ",\"queue_us\":%.3f,\"exec_us\":%.3f", s.queue_us,
                     s.exec_us);
      std::fputs("}}", f);
      first = false;
    }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace netbench
