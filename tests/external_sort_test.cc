#include <gtest/gtest.h>

#include <algorithm>

#include "sql/exec/external_sort.h"
#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

Schema KV() {
  return Schema({{"k", TypeId::kInt32}, {"v", TypeId::kInt32}});
}

std::vector<Tuple> RandomRows(int n, int key_range, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value::Int32(static_cast<int32_t>(
                              rng.Uniform(key_range))),
                          Value::Int32(i)}));
  }
  return rows;
}

class ExternalSortTest : public testing::Test {
 protected:
  ExternalSortTest() : pool_(&disk_, 64) {}
  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
};

TEST_F(ExternalSortTest, SmallInputStaysInMemory) {
  auto rows = RandomRows(100, 20, 1);
  ExternalSort sort(std::make_unique<MaterializedSource>(KV(), rows),
                    {{0, false}}, &pool_, /*memory_budget_rows=*/1000);
  auto out = Collect(&sort);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(sort.num_runs(), 0);
  ASSERT_EQ(out.value().size(), 100u);
  for (size_t i = 1; i < out.value().size(); ++i) {
    EXPECT_LE(out.value()[i - 1].Get(0).AsInt32(),
              out.value()[i].Get(0).AsInt32());
  }
}

TEST_F(ExternalSortTest, SpillsAndMergesCorrectly) {
  auto rows = RandomRows(5000, 300, 2);
  ExternalSort ext(std::make_unique<MaterializedSource>(KV(), rows),
                   {{0, false}}, &pool_, /*memory_budget_rows=*/256);
  auto out = Collect(&ext);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(ext.num_runs(), 15);

  Sort reference(std::make_unique<MaterializedSource>(KV(), rows),
                 {{0, false}});
  auto expected = Collect(&reference);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(out.value().size(), expected.value().size());
  for (size_t i = 0; i < out.value().size(); ++i) {
    EXPECT_EQ(out.value()[i].Get(0).AsInt32(),
              expected.value()[i].Get(0).AsInt32());
  }
}

TEST_F(ExternalSortTest, SpillPagesAreReusedAcrossSorts) {
  // Each Close hands the runs' pages back to the pool, so sorting the
  // same input again (a distiller iteration) spills into the same pages.
  auto rows = RandomRows(5000, 300, 4);
  uint32_t first_sort_pages = 0;
  for (int round = 0; round < 10; ++round) {
    ExternalSort ext(std::make_unique<MaterializedSource>(KV(), rows),
                     {{0, false}}, &pool_, /*memory_budget_rows=*/256);
    auto out = Collect(&ext);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value().size(), rows.size());
    ASSERT_GE(ext.num_runs(), 15);
    if (round == 0) first_sort_pages = disk_.NumPages();
  }
  EXPECT_EQ(disk_.NumPages(), first_sort_pages);
}

TEST_F(ExternalSortTest, StableAcrossSpills) {
  // Equal keys must keep input order even when they straddle runs.
  std::vector<Tuple> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(Tuple({Value::Int32(i % 3), Value::Int32(i)}));
  }
  ExternalSort ext(std::make_unique<MaterializedSource>(KV(), rows),
                   {{0, false}}, &pool_, /*memory_budget_rows=*/64);
  auto out = Collect(&ext);
  ASSERT_TRUE(out.ok());
  int prev_v[3] = {-1, -1, -1};
  for (const auto& t : out.value()) {
    int k = t.Get(0).AsInt32();
    EXPECT_GT(t.Get(1).AsInt32(), prev_v[k]);
    prev_v[k] = t.Get(1).AsInt32();
  }
}

TEST_F(ExternalSortTest, DescendingAndMultiKey) {
  auto rows = RandomRows(2000, 10, 3);
  ExternalSort ext(std::make_unique<MaterializedSource>(KV(), rows),
                   {{0, true}, {1, false}}, &pool_,
                   /*memory_budget_rows=*/128);
  auto out = Collect(&ext);
  ASSERT_TRUE(out.ok());
  for (size_t i = 1; i < out.value().size(); ++i) {
    int ka = out.value()[i - 1].Get(0).AsInt32();
    int kb = out.value()[i].Get(0).AsInt32();
    EXPECT_GE(ka, kb);
    if (ka == kb) {
      EXPECT_LE(out.value()[i - 1].Get(1).AsInt32(),
                out.value()[i].Get(1).AsInt32());
    }
  }
}

TEST_F(ExternalSortTest, EmptyInput) {
  ExternalSort ext(
      std::make_unique<MaterializedSource>(KV(), std::vector<Tuple>{}),
      {{0, false}}, &pool_, 16);
  auto out = Collect(&ext);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST_F(ExternalSortTest, HandlesStringsAcrossSpills) {
  Schema schema({{"s", TypeId::kString}, {"v", TypeId::kInt32}});
  Rng rng(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 800; ++i) {
    rows.push_back(Tuple({Value::Str(StrCat("url-", rng.Uniform(50))),
                          Value::Int32(i)}));
  }
  ExternalSort ext(std::make_unique<MaterializedSource>(schema, rows),
                   {{0, false}}, &pool_, /*memory_budget_rows=*/100);
  auto out = Collect(&ext);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 800u);
  for (size_t i = 1; i < out.value().size(); ++i) {
    EXPECT_LE(out.value()[i - 1].Get(0).AsString(),
              out.value()[i].Get(0).AsString());
  }
}

// Property sweep: external == in-memory across budgets and seeds.
class ExternalSortPropertyTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExternalSortPropertyTest, MatchesInMemorySort) {
  auto [seed, budget] = GetParam();
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 64);
  auto rows = RandomRows(1500, 77, seed);
  ExternalSort ext(std::make_unique<MaterializedSource>(KV(), rows),
                   {{0, false}}, &pool, budget);
  Sort mem(std::make_unique<MaterializedSource>(KV(), rows), {{0, false}});
  auto a = Collect(&ext);
  auto b = Collect(&mem);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].Get(0).AsInt32(), b.value()[i].Get(0).AsInt32());
    EXPECT_EQ(a.value()[i].Get(1).AsInt32(), b.value()[i].Get(1).AsInt32());
  }
}

INSTANTIATE_TEST_SUITE_P(BudgetSweep, ExternalSortPropertyTest,
                         testing::Combine(testing::Range(1, 5),
                                          testing::Values(2, 16, 100,
                                                          5000)));

}  // namespace
}  // namespace focus::sql
