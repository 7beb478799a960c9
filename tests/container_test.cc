#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "buffer/descriptor_table.h"
#include "hymem/admission_queue.h"
#include "container/concurrent_bitmap.h"
#include "container/mpmc_queue.h"

namespace spitfire {
namespace {

TEST(DescriptorTableTest, ConcurrentGetOrCreateOneDescriptorPerPid) {
  // Overlapping pid ranges that straddle several chunks, so threads race
  // on both the chunk install and the slot install.
  constexpr uint64_t kPages = 5 * DescriptorTable::kChunkSize;
  constexpr int kThreads = 4;
  constexpr uint64_t kSpan = 2 * DescriptorTable::kChunkSize + 17;
  DescriptorTable t(kPages);
  std::vector<std::vector<SharedPageDescriptor*>> seen(
      kThreads, std::vector<SharedPageDescriptor*>(kPages, nullptr));
  std::vector<std::thread> ths;
  for (int i = 0; i < kThreads; ++i) {
    ths.emplace_back([&t, &seen, i] {
      const uint64_t lo = static_cast<uint64_t>(i) * (kPages - kSpan) /
                          (kThreads - 1);
      for (int round = 0; round < 3; ++round) {
        for (uint64_t pid = lo; pid < lo + kSpan; ++pid) {
          SharedPageDescriptor* d = t.GetOrCreate(pid);
          ASSERT_NE(d, nullptr);
          if (seen[i][pid] == nullptr) seen[i][pid] = d;
          ASSERT_EQ(seen[i][pid], d);
        }
      }
    });
  }
  for (auto& th : ths) th.join();

  size_t created = 0;
  for (uint64_t pid = 0; pid < kPages; ++pid) {
    SharedPageDescriptor* d = t.Find(pid);
    if (d != nullptr) {
      ++created;
      EXPECT_EQ(d->pid, pid);
    }
    for (int i = 0; i < kThreads; ++i) {
      if (seen[i][pid] != nullptr) {
        EXPECT_EQ(seen[i][pid], d) << pid;
      }
    }
  }
  size_t visited = 0;
  t.ForEach([&](SharedPageDescriptor*) { ++visited; });
  EXPECT_EQ(visited, created);
  EXPECT_EQ(created, kPages);  // the ranges cover every pid
}

TEST(DescriptorTableTest, ForEachVisitsEachCreatedDescriptorOnce) {
  DescriptorTable t(4 * DescriptorTable::kChunkSize);
  const std::vector<page_id_t> pids = {
      0, 5, DescriptorTable::kChunkSize - 1, DescriptorTable::kChunkSize,
      3 * DescriptorTable::kChunkSize + 9, 4 * DescriptorTable::kChunkSize - 1};
  for (page_id_t pid : pids) {
    ASSERT_NE(t.GetOrCreate(pid), nullptr);
    ASSERT_EQ(t.GetOrCreate(pid), t.Find(pid));  // idempotent
  }
  std::vector<page_id_t> visited;
  t.ForEach([&](SharedPageDescriptor* d) { visited.push_back(d->pid); });
  EXPECT_EQ(visited, pids);  // once each, in pid order
}

TEST(DescriptorTableTest, FindOfUncreatedOrOutOfRangePidIsNull) {
  // A partial last chunk: the range bound, not the chunk size, applies.
  const uint64_t kPages = DescriptorTable::kChunkSize + 3;
  DescriptorTable t(kPages);
  EXPECT_EQ(t.Find(7), nullptr);
  ASSERT_NE(t.GetOrCreate(7), nullptr);
  EXPECT_EQ(t.Find(8), nullptr);  // same chunk, never created
  EXPECT_EQ(t.Find(DescriptorTable::kChunkSize), nullptr);  // no chunk yet
  EXPECT_EQ(t.Find(kPages), nullptr);
  EXPECT_EQ(t.GetOrCreate(kPages), nullptr);
  EXPECT_EQ(t.Find(kInvalidPageId), nullptr);
  EXPECT_EQ(t.GetOrCreate(kInvalidPageId), nullptr);
  EXPECT_NE(t.GetOrCreate(kPages - 1), nullptr);
}

TEST(ConcurrentBitmapTest, SetTestClear) {
  ConcurrentBitmap bm(200);
  EXPECT_FALSE(bm.Test(63));
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_EQ(bm.CountSet(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
}

TEST(ConcurrentBitmapTest, TestAndClearReturnsPrevious) {
  ConcurrentBitmap bm(10);
  bm.Set(3);
  EXPECT_TRUE(bm.TestAndClear(3));
  EXPECT_FALSE(bm.TestAndClear(3));
  EXPECT_FALSE(bm.Test(3));
}

TEST(ConcurrentBitmapTest, ConcurrentSetsAllLand) {
  ConcurrentBitmap bm(64 * 64);
  std::vector<std::thread> ths;
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&bm, t] {
      for (size_t i = static_cast<size_t>(t); i < bm.size(); i += 4) bm.Set(i);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(bm.CountSet(), bm.size());
}

TEST(AdmissionQueueTest, SecondConsiderationAdmits) {
  AdmissionQueue q(16);
  EXPECT_FALSE(q.ShouldAdmit(7));  // first touch: enqueued, bypass NVM
  EXPECT_TRUE(q.ShouldAdmit(7));   // second touch: admitted
  EXPECT_FALSE(q.ShouldAdmit(7));  // queue entry consumed; starts over
}

TEST(AdmissionQueueTest, CapacityBoundEvictsOldest) {
  AdmissionQueue q(2);
  EXPECT_FALSE(q.ShouldAdmit(1));
  EXPECT_FALSE(q.ShouldAdmit(2));
  EXPECT_FALSE(q.ShouldAdmit(3));  // evicts 1
  EXPECT_FALSE(q.ShouldAdmit(1));  // 1 no longer remembered
  EXPECT_TRUE(q.ShouldAdmit(3));   // 3 still remembered
}

TEST(AdmissionQueueTest, RemoveForgetsPage) {
  AdmissionQueue q(8);
  EXPECT_FALSE(q.ShouldAdmit(9));
  q.Remove(9);
  EXPECT_FALSE(q.ShouldAdmit(9));  // must be re-considered from scratch
}

TEST(AdmissionQueueTest, SizeTracksMembers) {
  AdmissionQueue q(8);
  q.ShouldAdmit(1);
  q.ShouldAdmit(2);
  EXPECT_EQ(q.size(), 2u);
  q.ShouldAdmit(1);  // admitted → removed
  EXPECT_EQ(q.size(), 1u);
}

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // full
  int v;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(&v));  // empty
}

TEST(MpmcQueueTest, CapacityRoundsUpToPow2) {
  MpmcQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(MpmcQueueTest, ConcurrentProducersConsumers) {
  MpmcQueue<uint64_t> q(1024);
  constexpr uint64_t kItems = 20000;
  std::atomic<uint64_t> produced{0}, consumed_sum{0}, consumed{0};
  std::vector<std::thread> ths;
  for (int p = 0; p < 2; ++p) {
    ths.emplace_back([&] {
      for (;;) {
        const uint64_t v = produced.fetch_add(1);
        if (v >= kItems) break;
        while (!q.TryPush(v + 1)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    ths.emplace_back([&] {
      uint64_t v;
      while (consumed.load() < kItems) {
        if (q.TryPop(&v)) {
          consumed_sum.fetch_add(v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(consumed.load(), kItems);
  EXPECT_EQ(consumed_sum.load(), kItems * (kItems + 1) / 2);
}

}  // namespace
}  // namespace spitfire
