//===- tests/threadpool_test.cpp - ThreadPool + parallelFor ---------------===//
//
// The pool underpins every parallel phase of the pipeline, so the contract
// it must keep is spelled out here: all indices covered exactly once,
// exceptions propagate to the caller, queued tasks drain on destruction,
// a loop runs on the caller (Worker 0) beside every worker, and worker ids
// stay inside [0, numWorkers()].
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace seldon;

namespace {

/// Holds each of \p Participants threads until all have arrived, so a
/// loop of that many indices runs one index on every participant at once.
/// Fails the test instead of hanging if the participants never meet.
void meet(std::atomic<unsigned> &Arrived, unsigned Participants) {
  ++Arrived;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Arrived.load() < Participants) {
    if (std::chrono::steady_clock::now() > Deadline) {
      ADD_FAILURE() << "only " << Arrived.load() << " of " << Participants
                    << " participants arrived";
      return;
    }
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, HardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numWorkers(), 4u);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I, unsigned) { ++Hits[I]; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForWorkerIdsInBounds) {
  ThreadPool Pool(3);
  constexpr size_t N = 200;
  std::vector<unsigned> Worker(N, ~0u);
  Pool.parallelFor(N, [&](size_t I, unsigned W) { Worker[I] = W; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_LE(Worker[I], Pool.numWorkers()) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForRunsOnTheCallerAndEveryWorker) {
  // numWorkers() + 1 indices that each wait for all the others: they can
  // only finish if the caller and every worker run one of them at once.
  ThreadPool Pool(3);
  const unsigned Participants = Pool.numWorkers() + 1;
  std::atomic<unsigned> Arrived{0};
  std::vector<unsigned> Worker(Participants, ~0u);
  std::vector<std::thread::id> Thread(Participants);
  Pool.parallelFor(Participants, [&](size_t I, unsigned W) {
    Worker[I] = W;
    Thread[I] = std::this_thread::get_id();
    meet(Arrived, Participants);
  });
  std::vector<unsigned> Ids = Worker;
  std::sort(Ids.begin(), Ids.end());
  for (unsigned W = 0; W < Participants; ++W)
    EXPECT_EQ(Ids[W], W);
  for (unsigned I = 0; I < Participants; ++I)
    EXPECT_EQ(Thread[I] == std::this_thread::get_id(), Worker[I] == 0)
        << "index " << I << " ran as worker " << Worker[I];
}

TEST(ThreadPoolTest, ConcurrentLoopsOnOnePoolBothFinish) {
  ThreadPool Pool(2);
  constexpr size_t N = 2000;
  constexpr int Rounds = 20;
  auto RunLoops = [&](std::vector<int> &Hits) {
    for (int R = 0; R < Rounds; ++R)
      Pool.parallelFor(N, [&](size_t I, unsigned) { ++Hits[I]; });
  };
  std::vector<int> HitsA(N, 0), HitsB(N, 0);
  std::thread A([&] { RunLoops(HitsA); });
  std::thread B([&] { RunLoops(HitsB); });
  A.join();
  B.join();
  for (size_t I = 0; I < N; ++I) {
    EXPECT_EQ(HitsA[I], Rounds) << "index " << I;
    EXPECT_EQ(HitsB[I], Rounds) << "index " << I;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleElementRanges) {
  ThreadPool Pool(2);
  std::atomic<int> Calls{0};
  Pool.parallelFor(0, [&](size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
  Pool.parallelFor(1, [&](size_t I, unsigned W) {
    EXPECT_EQ(I, 0u);
    EXPECT_EQ(W, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I, unsigned) {
                                  if (I == 37)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a failed loop and keeps working.
  std::atomic<int> Calls{0};
  Pool.parallelFor(10, [&](size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 10);
}

TEST(ThreadPoolTest, ExceptionInTheCallersSharePropagates) {
  ThreadPool Pool(2);
  const unsigned Participants = Pool.numWorkers() + 1;
  std::atomic<unsigned> Arrived{0};
  std::thread::id Caller = std::this_thread::get_id();
  EXPECT_THROW(Pool.parallelFor(Participants,
                                [&](size_t, unsigned W) {
                                  meet(Arrived, Participants);
                                  if (W == 0) {
                                    EXPECT_EQ(std::this_thread::get_id(),
                                              Caller);
                                    throw std::runtime_error("caller");
                                  }
                                }),
               std::runtime_error);
  std::atomic<int> Calls{0};
  Pool.parallelFor(10, [&](size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 10);
}

TEST(ThreadPoolTest, SubmitFutureRethrowsTaskException) {
  ThreadPool Pool(2);
  std::future<void> Ok = Pool.submit([] {});
  std::future<void> Bad =
      Pool.submit([] { throw std::logic_error("task failed"); });
  EXPECT_NO_THROW(Ok.get());
  EXPECT_THROW(Bad.get(), std::logic_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  constexpr int N = 64;
  std::atomic<int> Completed{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < N; ++I)
      Pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++Completed;
      });
    // Destructor runs with most tasks still queued.
  }
  EXPECT_EQ(Completed.load(), N);
}

TEST(ThreadPoolTest, ParallelForMoreIndicesThanWorkersBalances) {
  ThreadPool Pool(2);
  std::atomic<long> Sum{0};
  Pool.parallelFor(100, [&](size_t I, unsigned) {
    Sum += static_cast<long>(I);
  });
  EXPECT_EQ(Sum.load(), 99L * 100L / 2L);
}

// Regression: calling parallelFor from a worker of the same pool used to
// deadlock (the caller blocked on futures no idle worker could run). The
// nested call must run inline instead.
TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool Pool(2);
  constexpr size_t Outer = 8;
  constexpr size_t Inner = 16;
  std::atomic<long> Sum{0};
  Pool.parallelFor(Outer, [&](size_t, unsigned) {
    Pool.parallelFor(Inner, [&](size_t J, unsigned W) {
      // The inline fallback is serial on the calling worker: Worker id 0.
      EXPECT_EQ(W, 0u);
      Sum += static_cast<long>(J);
    });
  });
  EXPECT_EQ(Sum.load(),
            static_cast<long>(Outer) * (Inner - 1) * Inner / 2);
}

TEST(ThreadPoolTest, NestedParallelForFromTheCallersShareRunsInline) {
  ThreadPool Pool(2);
  const unsigned Participants = Pool.numWorkers() + 1;
  std::atomic<unsigned> Arrived{0};
  std::atomic<int> CallerNested{0};
  Pool.parallelFor(Participants, [&](size_t, unsigned W) {
    meet(Arrived, Participants);
    std::thread::id Outer = std::this_thread::get_id();
    Pool.parallelFor(8, [&](size_t, unsigned Inner) {
      EXPECT_EQ(Inner, 0u);
      EXPECT_EQ(std::this_thread::get_id(), Outer);
      if (W == 0)
        ++CallerNested;
    });
  });
  EXPECT_EQ(CallerNested.load(), 8);
}

TEST(ThreadPoolTest, ParallelForFromSubmittedTaskRunsInline) {
  ThreadPool Pool(2);
  std::atomic<int> Calls{0};
  auto F = Pool.submit([&] {
    Pool.parallelFor(10, [&](size_t, unsigned) { ++Calls; });
  });
  F.get(); // Used to hang forever.
  EXPECT_EQ(Calls.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExceptions) {
  ThreadPool Pool(2);
  EXPECT_THROW(
      Pool.parallelFor(4,
                       [&](size_t, unsigned) {
                         Pool.parallelFor(4, [&](size_t J, unsigned) {
                           if (J == 2)
                             throw std::runtime_error("inner");
                         });
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForOnDifferentPoolFromWorkerStaysParallel) {
  // Re-entrancy detection is per pool: a worker of pool A may fan out on
  // pool B normally.
  ThreadPool A(2), B(2);
  std::atomic<int> Calls{0};
  A.parallelFor(4, [&](size_t, unsigned) {
    B.parallelFor(8, [&](size_t, unsigned W) {
      EXPECT_LE(W, B.numWorkers());
      ++Calls;
    });
  });
  EXPECT_EQ(Calls.load(), 32);
}

} // namespace
