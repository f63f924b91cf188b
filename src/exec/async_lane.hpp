// A serial background task lane — the asynchrony primitive the out-of-core
// store's prefetcher runs on.
//
// ThreadPool deliberately exposes only parallel_for: its shutdown joins
// workers *without draining queued tasks*, and at GEO_THREADS=1 it has no
// workers at all, so fire-and-forget work submitted to the pool can be
// silently dropped (ScopedThreads churn) or never overlap anything. The
// AsyncLane is the complement: one dedicated thread, FIFO order, and a
// destructor that drains every submitted task before joining — a submitted
// task always runs exactly once, and its future always becomes ready.
//
// Tasks inherit the *submitting* thread's effective fault model
// (fault::active()), mirroring ThreadPool's propagation contract: a
// prefetch issued under a test's ScopedFaultInjection sees the same
// injected I/O faults a synchronous load would.
//
// Tasks submitted from inside a lane task run inline (no self-deadlock),
// like nested parallel_for.
#pragma once

#include <functional>
#include <future>

namespace geo::exec {

class AsyncLane {
 public:
  AsyncLane();
  ~AsyncLane();  // drains the queue, then joins

  AsyncLane(const AsyncLane&) = delete;
  AsyncLane& operator=(const AsyncLane&) = delete;

  // Enqueues `fn` to run on the lane thread (FIFO). The returned future
  // becomes ready when fn returns; an exception thrown by fn is captured
  // into the future. Thread-safe.
  std::future<void> submit(std::function<void()> fn);

  // Tasks submitted and not yet finished.
  std::size_t pending() const;

  // The process-wide I/O lane. Created on first use; lives for the process,
  // so a task must not outlive what it touches: its one user,
  // store::Prefetcher, waits for its own tasks in its destructor.
  static AsyncLane& io();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace geo::exec
