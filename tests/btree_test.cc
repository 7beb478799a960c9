#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "index/btree.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    ssd_ = std::make_unique<SsdDevice>(512ull * 1024 * 1024);
    BufferManagerOptions opt;
    opt.dram_frames = 256;
    opt.nvm_frames = 256;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd_.get();
    bm_ = std::make_unique<BufferManager>(opt);
    auto r = BTree::Create(bm_.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    tree_.reset(r.value());
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  std::unique_ptr<SsdDevice> ssd_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_->Insert(42, 4200).ok());
  uint64_t v = 0;
  ASSERT_TRUE(tree_->Lookup(42, &v).ok());
  EXPECT_EQ(v, 4200u);
}

TEST_F(BTreeTest, LookupMissingReturnsNotFound) {
  uint64_t v;
  EXPECT_TRUE(tree_->Lookup(7, &v).IsNotFound());
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert(1, 10).ok());
  EXPECT_FALSE(tree_->Insert(1, 20).ok());
  uint64_t v;
  ASSERT_TRUE(tree_->Lookup(1, &v).ok());
  EXPECT_EQ(v, 10u);
}

TEST_F(BTreeTest, UpsertOverwrites) {
  ASSERT_TRUE(tree_->Upsert(1, 10).ok());
  ASSERT_TRUE(tree_->Upsert(1, 20).ok());
  uint64_t v;
  ASSERT_TRUE(tree_->Lookup(1, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST_F(BTreeTest, RemoveDeletesKey) {
  ASSERT_TRUE(tree_->Insert(5, 50).ok());
  ASSERT_TRUE(tree_->Remove(5).ok());
  uint64_t v;
  EXPECT_TRUE(tree_->Lookup(5, &v).IsNotFound());
  EXPECT_TRUE(tree_->Remove(5).IsNotFound());
}

TEST_F(BTreeTest, ManyKeysSequential) {
  constexpr uint64_t kN = 20000;  // forces multiple leaf and inner splits
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree_->Insert(k, k * 2).ok()) << k;
  }
  EXPECT_GE(tree_->height(), 2u);
  for (uint64_t k = 0; k < kN; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok()) << k;
    ASSERT_EQ(v, k * 2);
  }
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kN);
}

TEST_F(BTreeTest, ManyKeysRandomOrder) {
  constexpr uint64_t kN = 20000;
  std::vector<uint64_t> keys(kN);
  for (uint64_t i = 0; i < kN; ++i) keys[i] = i * 7 + 1;
  Xoshiro256 rng(9);
  for (uint64_t i = kN - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.NextUint64(i + 1)]);
  }
  for (uint64_t k : keys) ASSERT_TRUE(tree_->Insert(k, k + 1).ok());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok());
    ASSERT_EQ(v, k + 1);
  }
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 3, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->Scan(300, 600, [&](uint64_t k, uint64_t) {
    seen.push_back(k);
    return true;
  }).ok());
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), 300u);
  EXPECT_EQ(seen.back(), 600u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 101u);
}

TEST_F(BTreeTest, ScanEarlyTermination) {
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(tree_->Insert(k, k).ok());
  int visits = 0;
  ASSERT_TRUE(tree_->Scan(0, 99, [&](uint64_t, uint64_t) {
    return ++visits < 10;
  }).ok());
  EXPECT_EQ(visits, 10);
}

TEST_F(BTreeTest, ScanAcrossDeletedKeys) {
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(tree_->Insert(k, k).ok());
  for (uint64_t k = 0; k < 3000; k += 2) ASSERT_TRUE(tree_->Remove(k).ok());
  uint64_t count = 0;
  ASSERT_TRUE(tree_->Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t) {
    EXPECT_EQ(k % 2, 1u);
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 1500u);
}

TEST_F(BTreeTest, SurvivesBufferEvictionWithTinyPools) {
  // A tree larger than the buffer: nodes constantly migrate across tiers.
  SsdDevice ssd(512ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Lazy();
  opt.ssd = &ssd;
  BufferManager bm(opt);
  auto r = BTree::Create(&bm);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<BTree> tree(r.value());
  constexpr uint64_t kN = 30000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree->Insert(k, k ^ 0xF00D).ok()) << k;
  }
  for (uint64_t k = 0; k < kN; k += 17) {
    uint64_t v = 0;
    ASSERT_TRUE(tree->Lookup(k, &v).ok()) << k;
    ASSERT_EQ(v, k ^ 0xF00D);
  }
}

TEST_F(BTreeTest, OpenExistingTree) {
  ASSERT_TRUE(tree_->Insert(77, 770).ok());
  auto r = BTree::Open(bm_.get(), tree_->meta_pid());
  ASSERT_TRUE(r.ok());
  std::unique_ptr<BTree> reopened(r.value());
  uint64_t v = 0;
  ASSERT_TRUE(reopened->Lookup(77, &v).ok());
  EXPECT_EQ(v, 770u);
}

TEST_F(BTreeTest, OpenRejectsNonTreePage) {
  auto pg = bm_->NewPage();
  ASSERT_TRUE(pg.ok());
  auto r = BTree::Open(bm_.get(), pg.value().pid());
  EXPECT_FALSE(r.ok());
}

TEST_F(BTreeTest, ConcurrentInsertsDisjointRanges) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 8000;
  std::vector<std::thread> ths;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
        if (!tree_->Insert(k, k).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kThreads * kPerThread);
  for (uint64_t k = 0; k < kThreads * kPerThread; k += 101) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok());
    ASSERT_EQ(v, k);
  }
}

TEST_F(BTreeTest, ConcurrentReadersDuringInserts) {
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 2, k).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread writer([&] {
    for (uint64_t k = 0; k < 5000; ++k) {
      if (!tree_->Insert(k * 2 + 1, k).ok()) reader_errors.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Xoshiro256 rng(55);
      while (!stop.load()) {
        const uint64_t k = rng.NextUint64(5000) * 2;
        uint64_t v = 0;
        const Status st = tree_->Lookup(k, &v);
        if (!st.ok() || v != k / 2) reader_errors.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

TEST_F(BTreeTest, MixedConcurrentUpserts) {
  // All threads hammer the same small key set with upserts; the tree must
  // stay structurally intact.
  std::vector<std::thread> ths;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < 5000; ++i) {
        const uint64_t k = rng.NextUint64(512);
        if (!tree_->Upsert(k, static_cast<uint64_t>(t)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_LE(count.value(), 512u);
}

// Readers look up a fixed set of pre-inserted keys while a writer grows the
// tree through root splits. A descent that loaded the root pid just before
// a split must never settle on the old root, which by then holds only the
// left half of the keys: every lookup has to succeed.
class BTreeRootSplitTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kStride = 1024;
  static constexpr uint64_t kFixed = 500;
  static constexpr int kReaders = 3;

  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    ssd_ = std::make_unique<SsdDevice>(64ull * 1024 * 1024);
    BufferManagerOptions opt;
    opt.dram_frames = 2048;  // a height-3 tree stays resident
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd_.get();
    bm_ = std::make_unique<BufferManager>(opt);
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  // A fresh tree holding the fixed keys (i * kStride -> i * kStride + 7).
  std::unique_ptr<BTree> NewTree() {
    auto r = BTree::Create(bm_.get());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::unique_ptr<BTree> tree(r.value());
    for (uint64_t i = 0; i < kFixed; ++i) {
      EXPECT_TRUE(tree->Insert(i * kStride, i * kStride + 7).ok());
    }
    EXPECT_EQ(tree->height(), 1u);
    return tree;
  }

  // The writer's key sequence: ascending keys between the fixed ones, so
  // every leaf split moves fixed keys into a new right sibling. Inserts
  // from *k on, in batches of 1024, until the tree reaches `height` or *k
  // reaches `until`. Returns the number of failed inserts.
  static int Grow(BTree* tree, uint32_t height, uint64_t until,
                  uint64_t* k) {
    int errors = 0;
    while (tree->height() < height && *k < until) {
      for (int n = 0; n < 1024; ++*k) {
        if (*k % kStride == 0) continue;
        if (!tree->Insert(*k, *k).ok()) ++errors;
        ++n;
      }
    }
    return errors;
  }

  // Grows a fresh tree to `target_height`, with readers running from the
  // writer's key `quiet_until` on, and returns the number of failed
  // operations.
  int GrowUnderReaders(uint32_t target_height, uint64_t quiet_until) {
    std::unique_ptr<BTree> tree = NewTree();
    uint64_t k = 1;
    int errors = Grow(tree.get(), target_height, quiet_until, &k);
    EXPECT_LT(tree->height(), target_height) << "quiet phase overshot";

    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    std::atomic<int> reader_errors{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        started.fetch_add(1);
        for (uint64_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
          const uint64_t key = (i % kFixed) * kStride;
          uint64_t v = 0;
          if (!tree->Lookup(key, &v).ok() || v != key + 7) {
            reader_errors.fetch_add(1);
          }
        }
      });
    }
    while (started.load() < kReaders) std::this_thread::yield();
    errors += Grow(tree.get(), target_height, kKeyLimit, &k);
    stop.store(true);
    for (auto& th : readers) th.join();
    EXPECT_GE(tree->height(), target_height);
    return errors + reader_errors.load();
  }

  static constexpr uint64_t kKeyLimit = uint64_t{1} << 22;

  std::unique_ptr<SsdDevice> ssd_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(BTreeRootSplitTest, LookupsSucceedAcrossRootSplits) {
  // Many cheap 1 -> 2 root splits with readers throughout.
  for (int round = 0; round < 16; ++round) {
    ASSERT_EQ(GrowUnderReaders(2, /*quiet_until=*/0), 0) << "round " << round;
  }
  // One 2 -> 3 root split. Growing to it takes ~500k inserts, so find
  // where it happens on a quiet tree first (the key sequence is fixed),
  // then replay with readers over only the last ~20 leaf splits before it.
  uint64_t split_at = 1;
  {
    std::unique_ptr<BTree> probe = NewTree();
    ASSERT_EQ(Grow(probe.get(), 3, kKeyLimit, &split_at), 0);
    ASSERT_EQ(probe->height(), 3u);
  }
  const uint64_t quiet = split_at > 16 * 1024 ? split_at - 16 * 1024 : 0;
  ASSERT_EQ(GrowUnderReaders(3, quiet), 0);
}

// Lookups read DRAM-resident nodes without pinning them, so a node's frame
// can be evicted, freed and handed to another page in the middle of a
// read. With 16 frames for a ~60-node tree and the eager policy every
// lookup migrates nodes up and evicts others. Each read must either
// validate against a frame that still held its node or restart; it must
// never index the pool with the invalid frame id an evictor leaves
// behind, and it must never return a value from the wrong node.
TEST(BTreeEvictionChurnTest, ConcurrentLookupsWhileNodesAreEvicted) {
  LatencySimulator::SetScale(0.0);
  SsdDevice ssd(64ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = &ssd;
  BufferManager bm(opt);
  auto r = BTree::Create(&bm);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<BTree> tree(r.value());
  constexpr uint64_t kN = 30000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree->Insert(k, k ^ 0xF00D).ok()) << k;
  }

  constexpr int kThreads = 4;
  constexpr int kLookups = 200000;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kLookups; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t key = x % kN;
        uint64_t v = 0;
        if (!tree->Lookup(key, &v).ok() || v != (key ^ 0xF00D)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(bm.stats().Snapshot().dram_evictions, 0u);
  EXPECT_EQ(bm.DebugDramCensus().total_pins, 0u);
  LatencySimulator::SetScale(1.0);
}

}  // namespace
}  // namespace spitfire
