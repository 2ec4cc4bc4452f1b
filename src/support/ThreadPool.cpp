//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//

#include "support/ThreadPool.h"

#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <utility>

using namespace seldon;

namespace {
/// Pool this thread currently serves: set for a worker's lifetime and for
/// the duration of a caller's own share. parallelFor uses it to detect
/// re-entrant calls.
thread_local const ThreadPool *ActivePool = nullptr;
} // namespace

/// One parallelFor loop, on its caller's stack. Every participant claims
/// indices from one counter.
struct ThreadPool::Loop {
  size_t N;
  const std::function<void(size_t, unsigned)> &Body;
  std::atomic<size_t> Next{0};
  std::atomic<bool> Failed{false};
  /// Worker shares taken off the queue and not yet finished (guarded by
  /// the pool's Mutex, like the failure below).
  unsigned Running = 0;
  /// The failure of the lowest-numbered worker that threw.
  std::exception_ptr Error;
  unsigned ErrorWorker = ~0u;

  Loop(size_t N, const std::function<void(size_t, unsigned)> &Body)
      : N(N), Body(Body) {}

  /// Runs indices as \p Worker until none remain or a participant threw;
  /// returns this participant's failure.
  std::exception_ptr run(unsigned Worker) {
    size_t Index;
    while (!Failed.load(std::memory_order_relaxed) &&
           (Index = Next.fetch_add(1, std::memory_order_relaxed)) < N) {
      try {
        Body(Index, Worker);
      } catch (...) {
        Failed.store(true, std::memory_order_relaxed);
        return std::current_exception();
      }
    }
    return nullptr;
  }
};

unsigned ThreadPool::hardwareConcurrency() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = hardwareConcurrency();
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  ActivePool = this;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WakeWorkers.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // Stopping and drained.
    Job J = std::move(Queue.front());
    Queue.pop_front();
    if (!J.Shares) {
      Lock.unlock();
      J.Task(); // Exceptions land in the task's future.
      Lock.lock();
      continue;
    }
    Loop &L = *J.Shares;
    ++L.Running;
    Lock.unlock();
    std::exception_ptr Error = L.run(J.Worker);
    Lock.lock();
    if (Error && J.Worker < L.ErrorWorker) {
      L.Error = Error;
      L.ErrorWorker = J.Worker;
    }
    if (--L.Running == 0)
      SharesDone.notify_all();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(std::move(Task));
  std::future<void> Future = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back({std::move(Packaged), nullptr, 0});
  }
  WakeWorkers.notify_one();
  return Future;
}

void ThreadPool::parallelFor(
    size_t N, const std::function<void(size_t, unsigned)> &Body) {
  const unsigned Helpers =
      static_cast<unsigned>(std::min<size_t>(numWorkers(), N ? N - 1 : 0));
  // A call from a thread this pool is serving runs inline: a worker
  // waiting on shares only its own pool can run would tie up a thread the
  // shares need.
  if (Helpers == 0 || ActivePool == this) {
    for (size_t I = 0; I < N; ++I)
      Body(I, 0);
    return;
  }

  Loop L(N, Body);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (unsigned W = 1; W <= Helpers; ++W)
      Queue.push_back({{}, &L, W});
  }
  for (unsigned W = 0; W < Helpers; ++W)
    WakeWorkers.notify_one();

  // The caller's share runs as a worker's does: serving this pool, and
  // outside the caller's open spans.
  std::exception_ptr Error;
  {
    const ThreadPool *Outer = std::exchange(ActivePool, this);
    trace::RootScope Roots;
    Error = L.run(0);
    ActivePool = Outer;
  }

  // Every index is claimed (or the loop failed): withdraw the shares no
  // worker has taken, wait for the taken ones, then rethrow the first
  // failure in participant order.
  std::unique_lock<std::mutex> Lock(Mutex);
  std::erase_if(Queue, [&](const Job &J) { return J.Shares == &L; });
  SharesDone.wait(Lock, [&] { return L.Running == 0; });
  if (!Error)
    Error = L.Error;
  Lock.unlock();
  if (Error)
    std::rethrow_exception(Error);
}
