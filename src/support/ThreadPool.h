//===- support/ThreadPool.h - Fixed-size worker pool -------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool and a parallelFor loop built on it.
///
/// The pool deliberately has no work stealing and no task dependencies:
/// every parallel phase of the pipeline is an independent fan-out over
/// projects, files, or constraint shards, collected per-index and merged in
/// a deterministic order by the caller. Tasks submitted before destruction
/// are drained (the destructor joins after the queue empties).
///
/// parallelFor hands each spawned task a stable worker index in
/// [0, numWorkers()), so callers can keep per-worker accumulators without
/// locking.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_THREADPOOL_H
#define SELDON_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace seldon {

/// Fixed-size pool of worker threads with a shared FIFO queue.
class ThreadPool {
public:
  /// Spawns \p Threads workers; 0 means hardwareConcurrency().
  explicit ThreadPool(unsigned Threads = 0);

  /// Drains: already-submitted tasks finish before the workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task; the future rethrows any exception the task threw.
  std::future<void> submit(std::function<void()> Task);

  /// Runs Body(Index, Worker) for every Index in [0, N), distributing
  /// indices dynamically over min(numWorkers(), N) tasks. Worker is the
  /// task's dense id, stable for the duration of the loop. Blocks until all
  /// indices ran; the first exception thrown by any Body is rethrown here
  /// (remaining indices are skipped once a Body has thrown).
  ///
  /// Safe to call from inside a task of this pool: re-entrant calls are
  /// detected and run inline on the calling worker (serially, with
  /// Worker == 0), since blocking a worker on futures only its own pool
  /// can run would deadlock.
  void parallelFor(size_t N,
                   const std::function<void(size_t Index, unsigned Worker)>
                       &Body);

  /// std::thread::hardware_concurrency clamped to at least 1.
  static unsigned hardwareConcurrency();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::packaged_task<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  bool Stopping = false;
};

} // namespace seldon

#endif // SELDON_SUPPORT_THREADPOOL_H
