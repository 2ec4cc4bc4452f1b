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
/// parallelFor runs one share of the loop on the calling thread beside the
/// pool's workers, so a loop on ThreadPool(N) runs on N + 1 threads; a
/// fan-out over J threads builds ThreadPool(J - 1). Each participant gets
/// a stable id in [0, numWorkers()], the caller being 0, so callers can
/// keep per-participant accumulators without locking.
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
  /// indices dynamically over the calling thread (Worker 0) and up to
  /// min(numWorkers(), N - 1) workers (Workers 1, 2, ...). Worker is the
  /// participant's id, stable for the duration of the loop. Blocks until
  /// all indices ran; the first exception thrown by any Body, in
  /// participant order, is rethrown here (remaining indices are skipped
  /// once a Body has thrown).
  ///
  /// Safe to call from a participant of a loop on this pool, the caller's
  /// own share included, and from a task of this pool: such calls run
  /// inline on the calling thread (serially, with Worker == 0).
  void parallelFor(size_t N,
                   const std::function<void(size_t Index, unsigned Worker)>
                       &Body);

  /// std::thread::hardware_concurrency clamped to at least 1.
  static unsigned hardwareConcurrency();

private:
  struct Loop;

  /// A queued unit of work: a submitted task, or a worker's share of a
  /// parallelFor loop.
  struct Job {
    std::packaged_task<void()> Task;
    Loop *Shares = nullptr;
    unsigned Worker = 0;
  };

  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<Job> Queue;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  /// Signalled when the last running worker share of a loop finishes.
  std::condition_variable SharesDone;
  bool Stopping = false;
};

} // namespace seldon

#endif // SELDON_SUPPORT_THREADPOOL_H
