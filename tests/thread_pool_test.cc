#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace mivid {
namespace {

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // No explicit wait: the destructor must run everything already queued.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, GlobalThreadCountOverride) {
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  SetGlobalThreadCount(0);
  EXPECT_GE(GlobalThreadCount(), 1);
}

}  // namespace
}  // namespace mivid
