#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace focus::storage {
namespace {

class BPlusTreeTest : public testing::Test {
 protected:
  BPlusTreeTest() : pool_(&disk_, 64) {}

  BPlusTree MakeTree() {
    auto tree = BPlusTree::Create(&pool_);
    EXPECT_TRUE(tree.ok());
    return tree.TakeValue();
  }

  MemDiskManager disk_;
  BufferPool pool_;
};

TEST_F(BPlusTreeTest, EmptyTree) {
  BPlusTree tree = MakeTree();
  EXPECT_EQ(tree.num_entries(), 0u);
  EXPECT_EQ(tree.height(), 1);
  std::vector<uint64_t> vals;
  ASSERT_TRUE(tree.GetAll(42, &vals).ok());
  EXPECT_TRUE(vals.empty());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, InsertAndGet) {
  BPlusTree tree = MakeTree();
  ASSERT_TRUE(tree.Insert(10, 100).ok());
  ASSERT_TRUE(tree.Insert(20, 200).ok());
  ASSERT_TRUE(tree.Insert(10, 101).ok());
  std::vector<uint64_t> vals;
  ASSERT_TRUE(tree.GetAll(10, &vals).ok());
  EXPECT_EQ(vals, (std::vector<uint64_t>{100, 101}));
  vals.clear();
  ASSERT_TRUE(tree.GetAll(20, &vals).ok());
  EXPECT_EQ(vals, (std::vector<uint64_t>{200}));
  vals.clear();
  ASSERT_TRUE(tree.GetAll(30, &vals).ok());
  EXPECT_TRUE(vals.empty());
}

TEST_F(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree tree = MakeTree();
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(i, i * 2).ok());
  }
  EXPECT_EQ(tree.num_entries(), 1000u);
  EXPECT_GT(tree.height(), 1);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    std::vector<uint64_t> vals;
    ASSERT_TRUE(tree.GetAll(i, &vals).ok());
    ASSERT_EQ(vals.size(), 1u) << "key " << i;
    EXPECT_EQ(vals[0], i * 2);
  }
}

TEST_F(BPlusTreeTest, ReverseInsertionOrder) {
  BPlusTree tree = MakeTree();
  for (uint64_t i = 2000; i > 0; --i) {
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  auto it = tree.Begin();
  ASSERT_TRUE(it.ok());
  uint64_t k, v, prev = 0;
  size_t n = 0;
  while (it.value().Next(&k, &v)) {
    EXPECT_GT(k, prev);
    prev = k;
    ++n;
  }
  EXPECT_EQ(n, 2000u);
}

TEST_F(BPlusTreeTest, ScanIsSortedWithDuplicates) {
  BPlusTree tree = MakeTree();
  Rng rng(11);
  std::multimap<uint64_t, uint64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Uniform(300);  // heavy duplication
    uint64_t val = i;                 // unique values
    ASSERT_TRUE(tree.Insert(key, val).ok());
    reference.emplace(key, val);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.num_entries(), 5000u);

  // Full scan must equal the sorted reference.
  auto it = tree.Begin();
  ASSERT_TRUE(it.ok());
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  uint64_t k, v;
  while (it.value().Next(&k, &v)) scanned.emplace_back(k, v);
  ASSERT_TRUE(it.value().status().ok());
  ASSERT_EQ(scanned.size(), reference.size());
  size_t i = 0;
  for (auto& [rk, rv] : reference) {
    EXPECT_EQ(scanned[i].first, rk);
    ++i;
  }
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));

  // Every key's duplicate set must be complete.
  for (uint64_t key = 0; key < 300; ++key) {
    std::vector<uint64_t> vals;
    ASSERT_TRUE(tree.GetAll(key, &vals).ok());
    auto range = reference.equal_range(key);
    std::set<uint64_t> expected;
    for (auto jt = range.first; jt != range.second; ++jt) {
      expected.insert(jt->second);
    }
    EXPECT_EQ(std::set<uint64_t>(vals.begin(), vals.end()), expected)
        << "key " << key;
  }
}

TEST_F(BPlusTreeTest, RemoveEntries) {
  BPlusTree tree = MakeTree();
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(tree.Insert(i % 37, i).ok());
  }
  ASSERT_TRUE(tree.Remove(5, 5).ok());
  ASSERT_TRUE(tree.Remove(5, 42).ok());
  EXPECT_EQ(tree.Remove(5, 5).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.num_entries(), 598u);
  std::vector<uint64_t> vals;
  ASSERT_TRUE(tree.GetAll(5, &vals).ok());
  EXPECT_EQ(std::count(vals.begin(), vals.end(), 5u), 0);
  EXPECT_EQ(std::count(vals.begin(), vals.end(), 42u), 0);
  EXPECT_EQ(std::count(vals.begin(), vals.end(), 79u), 1);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, SeekStartsMidway) {
  BPlusTree tree = MakeTree();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(i * 10, i).ok());
  }
  auto it = tree.Seek(55);
  ASSERT_TRUE(it.ok());
  uint64_t k, v;
  ASSERT_TRUE(it.value().Next(&k, &v));
  EXPECT_EQ(k, 60u);  // first key >= 55
}

TEST_F(BPlusTreeTest, RandomizedAgainstReference) {
  BPlusTree tree = MakeTree();
  Rng rng(99);
  std::multimap<uint64_t, uint64_t> reference;
  for (int round = 0; round < 12000; ++round) {
    uint64_t key = rng.Uniform(2000);
    uint64_t val = rng.Next();
    if (rng.Bernoulli(0.85) || reference.empty()) {
      ASSERT_TRUE(tree.Insert(key, val).ok());
      reference.emplace(key, val);
    } else {
      // Remove a random existing entry.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      ASSERT_TRUE(tree.Remove(it->first, it->second).ok());
      reference.erase(it);
    }
  }
  EXPECT_EQ(tree.num_entries(), reference.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  auto it = tree.Begin();
  ASSERT_TRUE(it.ok());
  uint64_t k, v;
  auto ref_it = reference.begin();
  while (it.value().Next(&k, &v)) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(k, ref_it->first);
    ++ref_it;
  }
  EXPECT_EQ(ref_it, reference.end());
}

TEST_F(BPlusTreeTest, LargeSequentialBuild) {
  BPlusTree tree = MakeTree();
  const uint64_t n = 60000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  EXPECT_EQ(tree.num_entries(), n);
  EXPECT_GE(tree.height(), 2);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // Spot probes.
  for (uint64_t i = 0; i < n; i += 997) {
    std::vector<uint64_t> vals;
    ASSERT_TRUE(tree.GetAll(i, &vals).ok());
    ASSERT_EQ(vals.size(), 1u);
    EXPECT_EQ(vals[0], i);
  }
}

// Pin accounting: an operation on a tree of height h pins each level once.
class BPlusTreePinTest : public BPlusTreeTest {
 protected:
  // Builds a tree of height >= 3 over the even keys 0, 2, 4, ... (value =
  // key / 2), leaving odd keys free for later inserts.
  BPlusTree MakeTallTree() {
    BPlusTree tree = MakeTree();
    for (uint64_t i = 0; tree.height() < 3; ++i) {
      EXPECT_TRUE(tree.Insert(2 * i, i).ok());
    }
    return tree;
  }

  uint64_t Fetches() const { return pool_.stats().fetches; }
};

TEST_F(BPlusTreePinTest, GetAllOfSingleEntryPinsEachLevelOnce) {
  BPlusTree tree = MakeTallTree();
  ASSERT_GE(tree.height(), 3);
  // Key 0 is the first entry of the leftmost leaf; key 2 follows it there.
  std::vector<uint64_t> vals;
  uint64_t before = Fetches();
  ASSERT_TRUE(tree.GetAll(0, &vals).ok());
  EXPECT_EQ(Fetches() - before, static_cast<uint64_t>(tree.height()));
  EXPECT_EQ(vals, (std::vector<uint64_t>{0}));
}

TEST_F(BPlusTreePinTest, InsertWithoutSplitPinsEachLevelOnce) {
  BPlusTree tree = MakeTallTree();
  ASSERT_GE(tree.height(), 3);
  const int height = tree.height();
  // Removing first leaves room in the target leaf, so the insert cannot
  // split.
  uint64_t before = Fetches();
  ASSERT_TRUE(tree.Remove(0, 0).ok());
  EXPECT_EQ(Fetches() - before, static_cast<uint64_t>(height));
  before = Fetches();
  ASSERT_TRUE(tree.Insert(0, 7).ok());
  EXPECT_EQ(Fetches() - before, static_cast<uint64_t>(height));
  EXPECT_EQ(tree.height(), height);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<uint64_t> vals;
  ASSERT_TRUE(tree.GetAll(0, &vals).ok());
  EXPECT_EQ(vals, (std::vector<uint64_t>{7}));
}

TEST_F(BPlusTreePinTest, GetAllFollowsDuplicatesAcrossLeaves) {
  BPlusTree tree = MakeTallTree();
  // More duplicates than one leaf holds, so they must span leaves.
  const uint64_t key = 1001;  // odd: not among the tree's keys
  const uint64_t dups = 400;
  std::vector<uint64_t> expected;
  for (uint64_t v = 0; v < dups; ++v) {
    ASSERT_TRUE(tree.Insert(key, dups - v).ok());
    expected.push_back(v + 1);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<uint64_t> vals;
  uint64_t before = Fetches();
  ASSERT_TRUE(tree.GetAll(key, &vals).ok());
  EXPECT_GT(Fetches() - before, static_cast<uint64_t>(tree.height()));
  EXPECT_EQ(vals, expected);
  // The neighbours are untouched.
  vals.clear();
  ASSERT_TRUE(tree.GetAll(key + 1, &vals).ok());
  EXPECT_EQ(vals, (std::vector<uint64_t>{(key + 1) / 2}));
}

}  // namespace
}  // namespace focus::storage
