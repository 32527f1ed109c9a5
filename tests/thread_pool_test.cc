// ThreadPool: the pool that runs disjoint simulation stacks side by side.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

#include "sim/thread_pool.h"

namespace durassd {
namespace {

TEST(ThreadPoolTest, RunBatchExecutesEverythingAndWaits) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back([&count] { count.fetch_add(1); });
  }
  pool.RunBatch(batch);
  EXPECT_EQ(count.load(), 64);  // RunBatch is a barrier.
  pool.RunBatch(batch);
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPoolTest, ScheduleAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace durassd
