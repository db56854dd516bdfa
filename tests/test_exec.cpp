// Shared-executor tests: completeness, serial ordering, slot disjointness,
// exception policy and nesting — the properties the sweep engine and the
// fleet scheduler build their determinism on.
#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mt4g::exec {
namespace {

/// Polls @p latch for up to 10 s: a rendezvous that never comes fails the
/// test instead of hanging it.
bool wait_bounded(std::latch& latch) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!latch.try_wait()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Executor, RunsEveryIndexExactlyOnce) {
  Executor executor(3);
  std::vector<std::atomic<int>> hits(100);
  executor.parallel_for(hits.size(), 0, [&](std::size_t i, std::uint32_t) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, SerialModeRunsInIndexOrderOnCaller) {
  Executor executor(3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  executor.parallel_for(10, 1, [&](std::size_t i, std::uint32_t slot) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(slot, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, SlotsStayBelowMaxWorkersAndAreExclusive) {
  Executor executor(4);
  constexpr std::uint32_t kMaxWorkers = 3;
  std::vector<std::atomic<int>> in_flight(kMaxWorkers);
  std::atomic<bool> overlap{false};
  std::atomic<std::uint32_t> max_slot{0};
  executor.parallel_for(200, kMaxWorkers, [&](std::size_t, std::uint32_t slot) {
    std::uint32_t seen = max_slot.load();
    while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
    }
    ASSERT_LT(slot, kMaxWorkers);
    if (in_flight[slot].fetch_add(1) != 0) overlap = true;
    in_flight[slot].fetch_sub(1);
  });
  EXPECT_FALSE(overlap) << "two tasks ran concurrently on one slot";
  EXPECT_LT(max_slot.load(), kMaxWorkers);
}

TEST(Executor, ZeroPoolThreadsRunsInline) {
  Executor executor(0);
  std::vector<std::size_t> order;
  executor.parallel_for(5, 0, [&](std::size_t i, std::uint32_t slot) {
    EXPECT_EQ(slot, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, RethrowsLowestIndexExceptionAfterCompletingBatch) {
  Executor executor(3);
  std::vector<std::atomic<int>> hits(50);
  try {
    executor.parallel_for(hits.size(), 0, [&](std::size_t i, std::uint32_t) {
      hits[i].fetch_add(1);
      if (i == 7 || i == 31) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");  // lowest index, not first observed
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);  // batch still completed
}

TEST(Executor, NestedParallelForMakesProgress) {
  Executor executor(2);
  std::atomic<int> inner_total{0};
  executor.parallel_for(4, 0, [&](std::size_t, std::uint32_t) {
    // Nested fan-out on the same executor: the caller participates, so this
    // completes even with every pool thread busy in the outer batch.
    executor.parallel_for(8, 0, [&](std::size_t, std::uint32_t) {
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(Executor, WaitingCallerHelpsNewerBatch) {
  // The outer batch's two tasks start together, so the caller and the one
  // pool thread hold one each. The pool thread's task issues a nested batch
  // whose two tasks must meet: the only thread left to run the second one
  // is the caller, which has drained its own indices and waits at its join.
  Executor executor(1);
  const auto caller = std::this_thread::get_id();
  std::latch outer_started(2);
  std::latch inner_met(2);
  std::atomic<bool> outer_met{true};
  std::atomic<bool> inner_met_in_time{true};
  std::atomic<bool> caller_helped{false};
  executor.parallel_for(2, 2, [&](std::size_t, std::uint32_t slot) {
    outer_started.count_down();
    if (!wait_bounded(outer_started)) outer_met = false;
    if (slot == 0) return;  // the caller's task: on to the join
    executor.parallel_for(2, 2, [&](std::size_t, std::uint32_t) {
      if (std::this_thread::get_id() == caller) caller_helped = true;
      inner_met.count_down();
      if (!wait_bounded(inner_met)) inner_met_in_time = false;
    });
  });
  ASSERT_TRUE(outer_met);
  EXPECT_TRUE(inner_met_in_time)
      << "the waiting caller slept instead of joining the nested batch";
  EXPECT_TRUE(caller_helped);
}

TEST(Executor, CallerLeavesOlderClaimableBatchAlone) {
  // An older batch stays claimable: its caller and the pool thread are each
  // blocked in one of its tasks, and a third index waits with room for one
  // more participant. A newer batch's caller must run its own tasks and
  // return without claiming any task of the older one.
  Executor executor(1);
  std::latch older_started(2);
  std::latch release(1);
  std::atomic<int> older_ran{0};
  std::atomic<bool> older_released{true};
  const auto newer_caller = std::this_thread::get_id();
  std::atomic<bool> newer_caller_ran_older{false};
  std::thread older_caller([&] {
    executor.parallel_for(3, 3, [&](std::size_t i, std::uint32_t) {
      older_ran.fetch_add(1);
      if (std::this_thread::get_id() == newer_caller) {
        newer_caller_ran_older = true;
      }
      if (i < 2) older_started.count_down();  // indices are claimed in order
      if (!wait_bounded(release)) older_released = false;
    });
  });
  EXPECT_TRUE(wait_bounded(older_started));
  std::atomic<int> newer_ran{0};
  executor.parallel_for(2, 2, [&](std::size_t, std::uint32_t) {
    newer_ran.fetch_add(1);
  });
  EXPECT_EQ(newer_ran.load(), 2);
  EXPECT_EQ(older_ran.load(), 2) << "the older batch's third index was taken";
  release.count_down();
  older_caller.join();
  EXPECT_EQ(older_ran.load(), 3);
  EXPECT_TRUE(older_released);
  EXPECT_FALSE(newer_caller_ran_older);
}

TEST(ExecutorStats, CountsTasksBatchesAndQueueDepth) {
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  executor.parallel_for(10, 0, [](std::size_t, std::uint32_t) {});
  executor.parallel_for(5, 1, [](std::size_t, std::uint32_t) {});  // serial
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.batches - before.batches, 2u);
  EXPECT_EQ(after.tasks - before.tasks, 15u);
  EXPECT_EQ(after.caller_tasks + after.pool_tasks, after.tasks);
  // The pooled batch was pushed onto the claimable queue at least once.
  EXPECT_GE(after.max_queue_depth, 1u);
}

TEST(ExecutorStats, CallerParticipationIsExercised) {
  // A latch with one arrival per participant blocks every task until ALL
  // participants (2 pool threads + the caller) have claimed one — so the
  // caller provably executes a task; no race can hand all three to the pool.
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  std::latch arrived(3);
  executor.parallel_for(3, 3, [&](std::size_t, std::uint32_t) {
    arrived.arrive_and_wait();
  });
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.tasks - before.tasks, 3u);
  EXPECT_GE(after.caller_tasks - before.caller_tasks, 1u);
  EXPECT_GT(after.caller_busy_ns, before.caller_busy_ns);
  EXPECT_GT(after.caller_busy_fraction(), 0.0)
      << "the calling thread must participate in its own batches";
  EXPECT_GT(after.pool_tasks - before.pool_tasks, 0u);
  EXPECT_GT(after.worker_busy_fraction, 0.0);
  EXPECT_GT(after.queue_wait_ns, before.queue_wait_ns);
}

TEST(ExecutorStats, NestedBatchesAreCounted) {
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  executor.parallel_for(2, 0, [&](std::size_t, std::uint32_t) {
    executor.parallel_for(4, 0, [](std::size_t, std::uint32_t) {});
  });
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.batches - before.batches, 3u);
  EXPECT_EQ(after.nested_batches - before.nested_batches, 2u);
  EXPECT_EQ(after.tasks - before.tasks, 10u);
}

TEST(Executor, SharedExecutorIsAProcessSingleton) {
  EXPECT_EQ(&shared_executor(), &shared_executor());
  std::atomic<int> count{0};
  shared_executor().parallel_for(16, 0, [&](std::size_t, std::uint32_t) {
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 16);
}

}  // namespace
}  // namespace mt4g::exec
