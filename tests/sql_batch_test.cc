// Vectorized-engine equivalence: every batch operator against its scalar
// oracle on randomized inputs, batch-boundary edge cases (empty input,
// exactly one batch, batch-size-1), and end-to-end scalar-vs-vectorized
// runs of the Figure 3 (BulkProbe) and Figure 4 (JoinDistiller) plans,
// and the heap-page batch scan against the Tuple-path SeqScan.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "classify/trainer.h"
#include "distill/distiller.h"
#include "distill/join_distiller.h"
#include "sql/catalog.h"
#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/batch.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/dictionary.h"
#include "sql/exec/join.h"
#include "sql/exec/operator.h"
#include "sql/exec/scan.h"
#include "sql/exec/sort.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "taxonomy/taxonomy.h"
#include "text/document.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

// A mixed-type random rowset: i32, i64, double, string, with NULLs in the
// string column (the only column the Figure 3/4 plans null-pad).
Schema MixedSchema() {
  return Schema({{"a", TypeId::kInt32},
                 {"b", TypeId::kInt64},
                 {"x", TypeId::kDouble},
                 {"s", TypeId::kString}});
}

std::vector<Tuple> RandomRows(Rng* rng, size_t n, int key_range = 20) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value s = rng->Bernoulli(0.15)
                  ? Value::Null(TypeId::kString)
                  : Value::Str(StrCat("s", rng->Uniform(key_range)));
    rows.push_back(
        Tuple({Value::Int32(static_cast<int32_t>(rng->Uniform(key_range))),
               Value::Int64(static_cast<int64_t>(rng->Uniform(1000))),
               Value::Double(rng->NextDouble() * 10 - 5), s}));
  }
  return rows;
}

OperatorPtr Source(const Schema& schema, std::vector<Tuple> rows) {
  return std::make_unique<MaterializedSource>(schema, std::move(rows));
}

BatchOperatorPtr BatchOf(const Schema& schema, std::vector<Tuple> rows,
                         int batch_rows) {
  return std::make_unique<Vectorize>(Source(schema, std::move(rows)),
                                     batch_rows);
}

std::vector<std::string> RowStrings(Operator* op) {
  auto rows = Collect(op);
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> out;
  for (const Tuple& t : rows.value()) out.push_back(t.ToString());
  return out;
}

std::vector<std::string> RowStrings(BatchOperatorPtr op) {
  Devectorize scalar(std::move(op));
  return RowStrings(&scalar);
}

// The batch sizes every equivalence case sweeps: batch-size-1, a size
// that straddles batch boundaries, exactly-one-batch, and the default.
const int kBatchSizes[] = {1, 7, 64, kDefaultBatchRows};

// ---- Heap scan: page-view decode against the Tuple path ----

// Drains a batch operator into rows of Values.
Result<std::vector<std::vector<Value>>> BatchRows(BatchOperator* op) {
  std::vector<std::vector<Value>> rows;
  FOCUS_RETURN_IF_ERROR(op->Open());
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, op->NextBatch(&b));
    if (!more) break;
    for (size_t r = 0; r < b.num_rows(); ++r) {
      std::vector<Value> row;
      for (int c = 0; c < b.num_columns(); ++c) row.push_back(b.ValueAt(r, c));
      rows.push_back(std::move(row));
    }
  }
  op->Close();
  return rows;
}

// The Tuple path (SeqScan), projected onto `cols`.
std::vector<std::vector<Value>> OracleRows(const Table* table,
                                           const std::vector<int>& cols) {
  SeqScan scan(table);
  auto tuples = Collect(&scan);
  EXPECT_TRUE(tuples.ok()) << tuples.status();
  std::vector<std::vector<Value>> rows;
  for (const Tuple& t : tuples.value()) {
    std::vector<Value> row;
    for (int c : cols) row.push_back(t.Get(c));
    rows.push_back(std::move(row));
  }
  return rows;
}

void ExpectSameRows(const std::vector<std::vector<Value>>& got,
                    const std::vector<std::vector<Value>>& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << where << " row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      ASSERT_EQ(got[r][c].type(), want[r][c].type()) << where;
      ASSERT_TRUE(got[r][c] == want[r][c])
          << where << " row " << r << " col " << c << ": "
          << got[r][c].ToString() << " vs " << want[r][c].ToString();
    }
  }
}

// A multi-page heap of all four types (variable-length strings, some
// empty), with scattered deletes plus every slot of the third page but
// one and the last slot of the first page tombstoned.
struct ScanFixture {
  storage::MemDiskManager disk;
  storage::BufferPool pool;
  Catalog catalog;
  Table* table = nullptr;
  // Live rows per heap page, in chain order.
  std::vector<size_t> live_per_page;

  explicit ScanFixture(size_t frames = 16) : pool(&disk, frames),
                                             catalog(&pool) {
    table = catalog.CreateTable("T", MixedSchema(), {}).value();
    Rng rng(41);
    std::vector<storage::Rid> rids;
    for (int i = 0; i < 900; ++i) {
      std::string s(rng.Uniform(40), 'a' + static_cast<char>(i % 26));
      rids.push_back(
          table
              ->Insert(Tuple({Value::Int32(i - 450),
                              Value::Int64(int64_t{1} << 40 | i),
                              Value::Double(rng.NextDouble() * 100 - 50),
                              Value::Str(std::move(s))}))
              .value());
    }
    storage::PageId first = rids.front().page_id;
    storage::PageId third = storage::kInvalidPageId;
    std::vector<storage::PageId> pages;
    for (const storage::Rid& rid : rids) {
      if (pages.empty() || pages.back() != rid.page_id) {
        pages.push_back(rid.page_id);
      }
    }
    if (pages.size() > 2) third = pages[2];
    size_t last_of_first = 0;
    for (size_t i = 0; i < rids.size(); ++i) {
      if (rids[i].page_id == first) last_of_first = i;
    }
    bool kept_one = false;
    for (size_t i = 0; i < rids.size(); ++i) {
      bool drop = i % 9 == 4 || i == last_of_first;
      if (rids[i].page_id == third) {
        drop = kept_one;
        kept_one = true;
      }
      if (drop) {
        EXPECT_TRUE(table->Delete(rids[i]).ok());
      }
    }
    auto it = table->Scan();
    storage::Rid rid;
    Tuple t;
    storage::PageId at = storage::kInvalidPageId;
    while (it.Next(&rid, &t)) {
      if (rid.page_id != at) live_per_page.push_back(0);
      at = rid.page_id;
      ++live_per_page.back();
    }
    EXPECT_TRUE(it.status().ok());
  }
};

TEST(BatchTableScanTest, MatchesTuplePathAcrossPagesColumnsAndBatchSizes) {
  ScanFixture fx;
  ASSERT_GE(fx.live_per_page.size(), 5u);
  ASSERT_EQ(fx.live_per_page[2], 1u);
  const size_t first_page = fx.live_per_page[0];
  const size_t total = fx.table->num_rows();
  // Batch sizes ending exactly at the first page's end, one short of it
  // and one past it (mid-page), plus the generic sweep and one batch for
  // the whole table.
  std::vector<int> sizes(std::begin(kBatchSizes), std::end(kBatchSizes));
  for (size_t n : {first_page - 1, first_page, first_page + 1, total,
                   total + 5}) {
    sizes.push_back(static_cast<int>(n));
  }
  const std::vector<std::vector<int>> col_sets = {
      {}, {0, 1, 2, 3}, {3}, {1, 2}, {3, 0}, {2, 1, 0, 3}, {3, 3, 0, 1, 1},
      {2, 2}};
  for (const std::vector<int>& cols : col_sets) {
    std::vector<int> all = cols;
    if (all.empty()) all = {0, 1, 2, 3};
    std::vector<std::vector<Value>> want = OracleRows(fx.table, all);
    ASSERT_EQ(want.size(), total);
    for (int bs : sizes) {
      BatchTableScan scan(fx.table, cols, bs);
      ASSERT_EQ(scan.schema().num_columns(), static_cast<int>(all.size()));
      auto got = BatchRows(&scan);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameRows(got.value(), want,
                     StrCat("cols=", all.size(), " batch_rows=", bs));
    }
  }
}

TEST(BatchTableScanTest, FetchesEachHeapPageOncePerBatch) {
  ScanFixture fx(/*frames=*/64);
  const uint64_t pages = fx.live_per_page.size();
  uint64_t before = fx.pool.stats().fetches;
  // Room for every row, so the first batch also reaches end-of-file.
  BatchTableScan one_batch(fx.table, {},
                           static_cast<int>(fx.table->num_rows()) + 1);
  ASSERT_TRUE(BatchRows(&one_batch).ok());
  EXPECT_EQ(fx.pool.stats().fetches - before, pages);
  // A batch boundary costs at most one re-fetch of the page it falls on.
  before = fx.pool.stats().fetches;
  BatchTableScan small(fx.table, {}, 100);
  ASSERT_TRUE(BatchRows(&small).ok());
  uint64_t batches = (fx.table->num_rows() + 99) / 100;
  EXPECT_LE(fx.pool.stats().fetches - before, pages + batches);
}

TEST(BatchTableScanTest, SchemaMismatchFailsLikeTupleDeserialize) {
  ScanFixture fx;
  TableLayout layout = fx.table->Layout();
  struct Case {
    Schema schema;
    StatusCode want;
  };
  const std::vector<Case> cases = {
      // One column more than stored: the record runs out (OutOfRange).
      {Schema({{"a", TypeId::kInt32}, {"b", TypeId::kInt64},
               {"x", TypeId::kDouble}, {"s", TypeId::kString},
               {"extra", TypeId::kInt64}}),
       StatusCode::kOutOfRange},
      // A wider leading type: int32 read as int64 shifts every later
      // column; the string length lands on double bytes and overruns.
      {Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64},
               {"x", TypeId::kDouble}, {"s", TypeId::kString}}),
       StatusCode::kOutOfRange},
      // One column fewer than stored: the string is left over
      // (InvalidArgument).
      {Schema({{"a", TypeId::kInt32}, {"b", TypeId::kInt64},
               {"x", TypeId::kDouble}}),
       StatusCode::kInvalidArgument},
  };
  std::string record;
  {
    storage::Rid rid;
    auto it = fx.table->Scan();
    std::string_view view;
    ASSERT_TRUE(it.NextRecord(&rid, &view));
    record.assign(view);
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    auto direct = Tuple::Deserialize(c.schema, record);
    ASSERT_FALSE(direct.ok()) << "case " << i;
    ASSERT_EQ(direct.status().code(), c.want) << "case " << i;
    auto attached = Table::Attach(&fx.pool, StrCat("W", i), c.schema, {},
                                  layout);
    ASSERT_TRUE(attached.ok());
    SeqScan oracle(attached.value().get());
    auto oracle_rows = Collect(&oracle);
    ASSERT_FALSE(oracle_rows.ok()) << "case " << i;
    EXPECT_EQ(oracle_rows.status().code(), c.want) << "case " << i;
    for (std::vector<int> cols : {std::vector<int>{}, std::vector<int>{0}}) {
      for (int bs : {1, kDefaultBatchRows}) {
        BatchTableScan scan(attached.value().get(), cols, bs);
        auto got = BatchRows(&scan);
        ASSERT_FALSE(got.ok()) << "case " << i;
        EXPECT_EQ(got.status().code(), c.want)
            << "case " << i << " batch_rows=" << bs << " " << got.status();
      }
    }
  }
  // A failed scan left no page pinned: the whole 16-frame pool still
  // serves a fresh scan of the real table.
  BatchTableScan scan(fx.table, {}, 1);
  EXPECT_TRUE(BatchRows(&scan).ok());
}

TEST(BatchTableScanTest, InterleavedScansHoldNoPinBetweenCalls) {
  // 16 scans open at once over an 8-frame pool: a scan that kept its page
  // pinned between NextBatch calls would leave no frame to fetch into.
  ScanFixture fx(/*frames=*/8);
  ASSERT_GT(fx.live_per_page.size(), 8u);
  std::vector<std::vector<Value>> want = OracleRows(fx.table, {0, 1, 2, 3});
  constexpr int kScans = 16;
  std::vector<std::unique_ptr<BatchTableScan>> scans;
  std::vector<std::vector<std::vector<Value>>> got(kScans);
  std::vector<bool> done(kScans, false);
  for (int i = 0; i < kScans; ++i) {
    // Distinct batch sizes so the scans sit on different pages.
    scans.push_back(
        std::make_unique<BatchTableScan>(fx.table, std::vector<int>{},
                                         13 + 17 * i));
    ASSERT_TRUE(scans.back()->Open().ok());
  }
  for (int live = kScans; live > 0;) {
    for (int i = 0; i < kScans; ++i) {
      if (done[i]) continue;
      Batch b;
      auto more = scans[i]->NextBatch(&b);
      ASSERT_TRUE(more.ok()) << "scan " << i << ": " << more.status();
      if (!more.value()) {
        done[i] = true;
        --live;
        continue;
      }
      for (size_t r = 0; r < b.num_rows(); ++r) {
        std::vector<Value> row;
        for (int c = 0; c < b.num_columns(); ++c) {
          row.push_back(b.ValueAt(r, c));
        }
        got[i].push_back(std::move(row));
      }
    }
  }
  for (int i = 0; i < kScans; ++i) {
    scans[i]->Close();
    ExpectSameRows(got[i], want, StrCat("scan ", i));
  }
}

TEST(BatchAdapterTest, VectorizeDevectorizeRoundTripsExactly) {
  Rng rng(101);
  Schema schema = MixedSchema();
  for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{200}}) {
    std::vector<Tuple> rows = RandomRows(&rng, n);
    OperatorPtr oracle = Source(schema, rows);
    std::vector<std::string> expected = RowStrings(oracle.get());
    for (int bs : kBatchSizes) {
      EXPECT_EQ(RowStrings(BatchOf(schema, rows, bs)), expected)
          << "n=" << n << " batch_rows=" << bs;
    }
  }
}

TEST(BatchOperatorTest, FilterMatchesScalar) {
  Rng rng(202);
  Schema schema = MixedSchema();
  std::vector<Tuple> rows = RandomRows(&rng, 300);
  auto scalar = std::make_unique<Filter>(
      Source(schema, rows),
      [](const Tuple& t) { return t.Get(0).AsInt32() % 3 == 0; });
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchFilter>(
        BatchOf(schema, rows, bs),
        [](const Batch& in, std::vector<int64_t>* sel) {
          const auto& a = in.col(0).i32;
          for (size_t i = 0; i < a.size(); ++i) {
            if (a[i] % 3 == 0) sel->push_back(static_cast<int64_t>(i));
          }
        });
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, ProjectMatchesScalar) {
  Rng rng(303);
  Schema schema = MixedSchema();
  std::vector<Tuple> rows = RandomRows(&rng, 250);
  auto scalar = std::make_unique<Project>(
      Source(schema, rows),
      std::vector<ProjExpr>{
          ProjExpr{"a", TypeId::kInt32,
                   [](const Tuple& t) { return t.Get(0); }},
          ProjExpr{"bx", TypeId::kDouble, [](const Tuple& t) {
                     return Value::Double(t.Get(1).AsInt64() *
                                          t.Get(2).AsDouble());
                   }}});
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchProject>(
        BatchOf(schema, rows, bs),
        std::vector<BatchExpr>{
            BatchExpr::Passthrough("a", TypeId::kInt32, 0),
            BatchExpr{"bx", TypeId::kDouble, [](const Batch& in) {
                        const auto& b = in.col(1).i64;
                        const auto& x = in.col(2).f64;
                        ColumnPtr out = NewColumn(TypeId::kDouble);
                        out->f64.reserve(b.size());
                        for (size_t i = 0; i < b.size(); ++i) {
                          out->f64.push_back(b[i] * x[i]);
                        }
                        return out;
                      }}});
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, SortMatchesScalarIncludingStability) {
  Rng rng(404);
  Schema schema = MixedSchema();
  // Narrow key range -> many duplicate keys, so instability would show.
  std::vector<Tuple> rows = RandomRows(&rng, 400, /*key_range=*/5);
  std::vector<SortKey> keys{{0, false}, {2, true}};
  auto scalar = std::make_unique<Sort>(Source(schema, rows), keys);
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch =
        std::make_unique<BatchSort>(BatchOf(schema, rows, bs), keys, bs);
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, SortsInt64KeySpanningFullRange) {
  // One int64 key whose values span INT64_MIN..INT64_MAX needs all 64 bits
  // of the packed sort word.
  Schema schema({{"k", TypeId::kInt64}, {"i", TypeId::kInt32}});
  const std::vector<int64_t> keys_in = {
      0, std::numeric_limits<int64_t>::max(), -1,
      std::numeric_limits<int64_t>::min(), 42, -42,
      std::numeric_limits<int64_t>::min() + 1, 1};
  std::vector<Tuple> rows;
  for (size_t i = 0; i < keys_in.size(); ++i) {
    rows.push_back(Tuple({Value::Int64(keys_in[i]),
                          Value::Int32(static_cast<int32_t>(i))}));
  }
  for (bool desc : {false, true}) {
    std::vector<int64_t> expected = keys_in;
    std::sort(expected.begin(), expected.end());
    if (desc) std::reverse(expected.begin(), expected.end());
    std::vector<SortKey> keys{{0, desc}};
    auto sorter = std::make_unique<BatchSort>(BatchOf(schema, rows, 64),
                                              keys, 64);
    Devectorize scalar(std::move(sorter));
    auto out = Collect(&scalar);
    ASSERT_TRUE(out.ok()) << out.status();
    std::vector<int64_t> got;
    for (const Tuple& t : out.value()) got.push_back(t.Get(0).AsInt64());
    EXPECT_EQ(got, expected) << "descending=" << desc;
  }
}

// Sorted inputs with heavy key duplication for the merge-join cases.
std::vector<Tuple> SortedKeyed(Rng* rng, size_t n, int key_range,
                               double payload_scale) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        Tuple({Value::Int32(static_cast<int32_t>(rng->Uniform(key_range))),
               Value::Double(rng->NextDouble() * payload_scale)}));
  }
  Sort sorter(Source(schema, std::move(rows)),
              std::vector<SortKey>{{0, false}});
  auto sorted = Collect(&sorter);
  EXPECT_TRUE(sorted.ok());
  return sorted.TakeValue();
}

TEST(BatchOperatorTest, MergeJoinMatchesScalarInnerAndOuter) {
  Rng rng(505);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  std::vector<Tuple> left = SortedKeyed(&rng, 120, 15, 1.0);
  std::vector<Tuple> right = SortedKeyed(&rng, 90, 15, 100.0);
  for (bool outer : {false, true}) {
    auto scalar = std::make_unique<MergeJoin>(
        Source(schema, left), Source(schema, right), std::vector<int>{0},
        std::vector<int>{0}, outer);
    std::vector<std::string> expected = RowStrings(scalar.get());
    for (int bs : kBatchSizes) {
      auto batch = std::make_unique<BatchMergeJoin>(
          BatchOf(schema, left, bs), BatchOf(schema, right, bs),
          std::vector<int>{0}, std::vector<int>{0}, outer, bs);
      EXPECT_EQ(RowStrings(std::move(batch)), expected)
          << "outer=" << outer << " batch_rows=" << bs;
    }
  }
}

TEST(BatchOperatorTest, MergeJoinEmptyInputs) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  Rng rng(606);
  std::vector<Tuple> some = SortedKeyed(&rng, 10, 4, 1.0);
  for (bool left_empty : {true, false}) {
    for (bool outer : {false, true}) {
      std::vector<Tuple> left = left_empty ? std::vector<Tuple>{} : some;
      std::vector<Tuple> right = left_empty ? some : std::vector<Tuple>{};
      auto scalar = std::make_unique<MergeJoin>(
          Source(schema, left), Source(schema, right), std::vector<int>{0},
          std::vector<int>{0}, outer);
      auto batch = std::make_unique<BatchMergeJoin>(
          BatchOf(schema, left, 3), BatchOf(schema, right, 3),
          std::vector<int>{0}, std::vector<int>{0}, outer, 3);
      EXPECT_EQ(RowStrings(std::move(batch)), RowStrings(scalar.get()))
          << "left_empty=" << left_empty << " outer=" << outer;
    }
  }
}

TEST(BatchOperatorTest, CrossJoinMatchesNestedLoop) {
  Rng rng(707);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  std::vector<Tuple> left = SortedKeyed(&rng, 23, 8, 1.0);
  std::vector<Tuple> right = SortedKeyed(&rng, 5, 8, 10.0);
  auto scalar = std::make_unique<NestedLoopJoin>(
      Source(schema, left), Source(schema, right),
      [](const Tuple&, const Tuple&) { return true; });
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchCrossJoin>(
        BatchOf(schema, left, bs), BatchOf(schema, right, bs), bs);
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, SortedAggregateMatchesHashAggregateBitExactly) {
  Rng rng(808);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  // Input sorted by the group key: HashAggregate emits groups in
  // ascending key order and accumulates in arrival order — exactly the
  // sorted-run order BatchSortedAggregate consumes.
  std::vector<Tuple> rows = SortedKeyed(&rng, 500, 12, 1.0);
  std::vector<AggSpec> aggs{AggSpec{AggKind::kSum, 1, "sum_p"},
                            AggSpec{AggKind::kCount, -1, "cnt"}};
  auto scalar = std::make_unique<HashAggregate>(
      Source(schema, rows), std::vector<int>{0}, aggs);
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchSortedAggregate>(
        BatchOf(schema, rows, bs), std::vector<int>{0}, aggs, bs);
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, SortedAggregateIntSumTypesMatchScalar) {
  Schema schema({{"k", TypeId::kInt32}, {"v", TypeId::kInt64}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back(Tuple({Value::Int32(i / 3), Value::Int64(i * 7)}));
  }
  std::vector<AggSpec> aggs{AggSpec{AggKind::kSum, 1, "sum_v"}};
  auto scalar = std::make_unique<HashAggregate>(
      Source(schema, rows), std::vector<int>{0}, aggs);
  auto batch = std::make_unique<BatchSortedAggregate>(
      BatchOf(schema, rows, 2), std::vector<int>{0}, aggs, 2);
  EXPECT_EQ(RowStrings(std::move(batch)), RowStrings(scalar.get()));
}

TEST(BatchOperatorTest, FusedSortAggregateMatchesSortThenAggregate) {
  Rng rng(909);
  // Unsorted, mixed-type input with NULL strings: the fused operator must
  // reproduce BatchSort + BatchSortedAggregate bit for bit, through both
  // the integer fast-path sort (int keys) and the generic sort (string
  // key forces the fallback).
  std::vector<Tuple> rows = RandomRows(&rng, 400, /*key_range=*/7);
  Schema schema = MixedSchema();
  std::vector<AggSpec> aggs{AggSpec{AggKind::kSum, 2, "sum_x"},
                            AggSpec{AggKind::kCount, -1, "cnt"}};
  struct Case {
    std::vector<SortKey> keys;
    std::vector<int> groups;
  };
  for (const Case& c :
       {Case{{{0, false}, {1, false}}, {0, 1}},   // two int keys (fast)
        Case{{{1, true}}, {1}},                   // descending int (fast)
        Case{{{3, false}}, {3}}}) {               // string key (generic)
    auto reference = std::make_unique<BatchSortedAggregate>(
        std::make_unique<BatchSort>(BatchOf(schema, rows, 64), c.keys, 64),
        c.groups, aggs, 64);
    std::vector<std::string> expected = RowStrings(std::move(reference));
    for (int bs : kBatchSizes) {
      auto fused = std::make_unique<BatchSortAggregate>(
          BatchOf(schema, rows, bs), c.keys, c.groups, aggs, bs);
      EXPECT_EQ(RowStrings(std::move(fused)), expected)
          << "batch_rows=" << bs;
    }
  }
}

TEST(BatchOperatorTest, EmptyInputThroughEveryOperator) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  auto empty = [&] { return BatchOf(schema, {}, 4); };
  EXPECT_TRUE(RowStrings(std::make_unique<BatchFilter>(
                             empty(),
                             [](const Batch&, std::vector<int64_t>*) {}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchSort>(
                             empty(), std::vector<SortKey>{{0, false}}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchSortedAggregate>(
                             empty(), std::vector<int>{0},
                             std::vector<AggSpec>{
                                 AggSpec{AggKind::kCount, -1, "c"}}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchSortAggregate>(
                             empty(), std::vector<SortKey>{{0, false}},
                             std::vector<int>{0},
                             std::vector<AggSpec>{
                                 AggSpec{AggKind::kCount, -1, "c"}}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchCrossJoin>(empty(), empty()))
                  .empty());
}

// ---- Dictionary encoding: edge cases + aliasing regression ----

TEST(DictionaryTest, AllNullColumnEncodesToNullCodes) {
  ColumnPtr col = NewColumn(TypeId::kInt32);
  for (int i = 0; i < 200; ++i) col->AppendNull();
  DictionaryPtr dict = ColumnDictionary::Build(*col);
  EXPECT_EQ(dict->size(), 0);
  ColumnPtr codes = EncodeColumn(*col, *dict);
  ASSERT_EQ(codes->size(), 200u);
  for (int32_t c : codes->i32) EXPECT_EQ(c, ColumnDictionary::kNullCode);
  ColumnPtr decoded = DecodeColumn(*codes, *dict);
  ASSERT_EQ(decoded->size(), 200u);
  for (size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_TRUE(decoded->IsNull(i)) << "row " << i;
  }
  ColumnSet rows(Schema({{"v", TypeId::kInt32}}), {col});
  EncodedColumnSet enc = EncodedColumnSet::FromColumnSet(rows);
  EXPECT_EQ(enc.stats(0).rows, 200u);
  EXPECT_EQ(enc.stats(0).nulls, 200u);
  EXPECT_EQ(enc.stats(0).distinct, 0u);
}

TEST(DictionaryTest, SingleDistinctValueColumnRoundTrips) {
  ColumnPtr col = NewColumn(TypeId::kInt64);
  for (int i = 0; i < 500; ++i) {
    if (i % 7 == 3) {
      col->AppendNull();
    } else {
      col->AppendValue(Value::Int64(42));
    }
  }
  DictionaryPtr dict = ColumnDictionary::Build(*col);
  ASSERT_EQ(dict->size(), 1);
  EXPECT_EQ(dict->CodeOf(Value::Int64(42)), 0);
  EXPECT_EQ(dict->CodeOf(Value::Int64(41)), ColumnDictionary::kMissingCode);
  EXPECT_EQ(dict->CodeOf(Value::Null(TypeId::kInt64)),
            ColumnDictionary::kNullCode);
  ColumnPtr codes = EncodeColumn(*col, *dict);
  ColumnPtr decoded = DecodeColumn(*codes, *dict);
  ASSERT_EQ(decoded->size(), col->size());
  for (size_t i = 0; i < col->size(); ++i) {
    EXPECT_EQ(decoded->ValueAt(i).ToString(), col->ValueAt(i).ToString())
        << "row " << i;
  }
}

TEST(DictionaryTest, CodesPast16BitsStayExact) {
  // > 2^16 distinct values: codes are int32, not uint16 — positions past
  // 65535 must survive encode/decode unclamped. Values spaced by 3 so
  // near-miss probes land between entries; insertion order descending so
  // Build must actually sort.
  constexpr int32_t kDistinct = 70000;
  ColumnPtr col = NewColumn(TypeId::kInt64);
  for (int32_t i = kDistinct - 1; i >= 0; --i) {
    col->AppendValue(Value::Int64(static_cast<int64_t>(i) * 3));
  }
  DictionaryPtr dict = ColumnDictionary::Build(*col);
  ASSERT_EQ(dict->size(), kDistinct);
  for (int32_t code : {0, 65535, 65536, kDistinct - 1}) {
    EXPECT_EQ(dict->ValueOf(code).AsInt64(), static_cast<int64_t>(code) * 3);
    EXPECT_EQ(dict->CodeOf(Value::Int64(static_cast<int64_t>(code) * 3)),
              code);
  }
  EXPECT_EQ(dict->CodeOf(Value::Int64(1)), ColumnDictionary::kMissingCode);
  ColumnPtr codes = EncodeColumn(*col, *dict);
  EXPECT_EQ(codes->i32.front(), kDistinct - 1);
  EXPECT_EQ(codes->i32.back(), 0);
  ColumnPtr decoded = DecodeColumn(*codes, *dict);
  EXPECT_EQ(decoded->i64.front(), static_cast<int64_t>(kDistinct - 1) * 3);
  EXPECT_EQ(decoded->i64.back(), 0);
}

TEST(DictionaryTest, MixedEncodedUnencodedJoinMatchesValueJoin) {
  // One join input arrives dictionary-encoded, the other as raw values:
  // the raw side is encoded on the fly against the foreign dictionary,
  // kMissingCode rows (absent from the encoded side's domain, so
  // unmatchable) are filtered, the join runs purely on codes, and both
  // key columns decode at output. Must equal the scalar value join.
  Rng rng(1234);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  std::vector<Tuple> left = SortedKeyed(&rng, 160, 12, 1.0);
  // Wider key domain: some right keys are outside the left dictionary.
  std::vector<Tuple> right = SortedKeyed(&rng, 110, 30, 10.0);
  auto scalar = std::make_unique<MergeJoin>(
      Source(schema, left), Source(schema, right), std::vector<int>{0},
      std::vector<int>{0});
  std::vector<std::string> expected = RowStrings(scalar.get());

  ColumnSet lcols(schema), rcols(schema);
  for (const Tuple& t : left) lcols.AppendTuple(t);
  for (const Tuple& t : right) rcols.AppendTuple(t);
  DictionaryPtr dict = ColumnDictionary::BuildFromSorted(lcols.col(0));
  ColumnPtr lcodes = EncodeSortedColumn(lcols.col(0), *dict);
  ColumnPtr rcodes = EncodeSortedColumn(rcols.col(0), *dict);
  std::vector<int64_t> keep;
  for (size_t i = 0; i < rcodes->i32.size(); ++i) {
    if (rcodes->i32[i] >= 0) keep.push_back(static_cast<int64_t>(i));
  }
  Schema cschema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  ColumnSet lenc(cschema, {lcodes, lcols.col_ptr(1)});
  ColumnSet renc(cschema, {Gather(*rcodes, keep), Gather(rcols.col(1), keep)});
  for (bool dense : {false, true}) {
    auto join = std::make_unique<BatchProbeJoin>(
        std::make_unique<BatchSource>(&lenc),
        std::make_unique<BatchSource>(&renc), 0, 0, /*left_outer=*/false,
        dense ? static_cast<int64_t>(dict->size()) : 0);
    ColumnSet joined;
    ASSERT_TRUE(CollectInto(join.get(), &joined).ok());
    // Late materialization of both key columns.
    ColumnSet decoded(
        Schema({{"k", TypeId::kInt32},
                {"p", TypeId::kDouble},
                {"k2", TypeId::kInt32},
                {"p2", TypeId::kDouble}}),
        {DecodeColumn(joined.col(0), *dict), joined.col_ptr(1),
         DecodeColumn(joined.col(2), *dict), joined.col_ptr(3)});
    EXPECT_EQ(RowStrings(std::make_unique<BatchSource>(&decoded)), expected)
        << "dense=" << dense;
  }
}

TEST(DictionaryTest, MaterializeReturnsFreshUnaliasedColumns) {
  // Regression for the ColumnSet shared_ptr aliasing bug class (PR 6):
  // a materialized/decoded column surfacing as a shared buffer in two
  // output slots, so mutating one mutates the other. Every Materialize /
  // DecodeColumn call must return freshly allocated storage — for
  // encoded and plain (forwarded) columns alike.
  ColumnPtr scol = NewColumn(TypeId::kString);
  ColumnPtr dcol = NewColumn(TypeId::kDouble);
  for (int i = 0; i < 50; ++i) {
    scol->AppendValue(Value::Str(StrCat("v", i % 5)));
    dcol->AppendValue(Value::Double(i * 0.5));
  }
  ColumnSet rows(Schema({{"s", TypeId::kString}, {"x", TypeId::kDouble}}),
                 {scol, dcol});
  EncodedColumnSet enc = EncodedColumnSet::FromColumnSet(rows);
  ASSERT_TRUE(enc.encoded(0));
  ASSERT_FALSE(enc.encoded(1));  // doubles default to unencoded

  ColumnPtr a = enc.Materialize(0);
  ColumnPtr b = enc.Materialize(0);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), scol.get());
  a->arena[0] = 'X';
  EXPECT_EQ(b->StringAt(0), "v0");
  EXPECT_EQ(scol->StringAt(0), "v0");

  ColumnPtr c = enc.Materialize(1);
  ColumnPtr d = enc.Materialize(1);
  EXPECT_NE(c.get(), d.get());
  EXPECT_NE(c.get(), dcol.get());
  c->f64[0] = 999.0;
  EXPECT_EQ(d->f64[0], 0.0);
  EXPECT_EQ(dcol->f64[0], 0.0);

  // Same guarantee through standalone decode.
  ColumnPtr codes = EncodeColumn(*scol, *enc.dict(0));
  ColumnPtr e = DecodeColumn(*codes, *enc.dict(0));
  ColumnPtr f = DecodeColumn(*codes, *enc.dict(0));
  EXPECT_NE(e.get(), f.get());
  e->arena[0] = 'Y';
  EXPECT_EQ(f->StringAt(0), "v0");
}

// ---- Figure 3: BulkProbe scalar vs vectorized ----

TEST(EngineEquivalenceTest, BulkProbeScoresWithin1em9) {
  Rng rng(42);
  taxonomy::Taxonomy tax;
  using taxonomy::kRootCid;
  taxonomy::Cid rec = tax.AddTopic(kRootCid, "recreation").value();
  taxonomy::Cid biz = tax.AddTopic(kRootCid, "business").value();
  std::vector<taxonomy::Cid> leaves = {
      tax.AddTopic(rec, "cycling").value(),
      tax.AddTopic(rec, "gardening").value(),
      tax.AddTopic(biz, "mutual_funds").value(),
      tax.AddTopic(biz, "stocks").value()};

  auto make_doc = [&](taxonomy::Cid leaf) {
    std::vector<std::string> tokens;
    for (int i = 0; i < 140; ++i) {
      if (rng.Bernoulli(0.6)) {
        tokens.push_back(StrCat("w_", tax.Name(leaf), "_", rng.Uniform(25)));
      } else {
        tokens.push_back(StrCat("bg_", rng.Uniform(60)));
      }
    }
    return text::BuildTermVector(tokens);
  };

  classify::Trainer trainer(
      classify::TrainerOptions{.max_features_per_node = 150});
  std::vector<classify::LabeledDocument> training;
  uint64_t did = 1;
  for (taxonomy::Cid leaf : leaves) {
    for (int i = 0; i < 12; ++i) {
      training.push_back(
          classify::LabeledDocument{did++, leaf, make_doc(leaf)});
    }
  }
  auto model = trainer.Train(tax, training);
  ASSERT_TRUE(model.ok()) << model.status();
  classify::HierarchicalClassifier ref(&tax, &model.value());

  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  Catalog catalog(&pool);
  auto tables = classify::BuildClassifierTables(&catalog, tax,
                                                model.value());
  ASSERT_TRUE(tables.ok()) << tables.status();

  auto doc_table = classify::CreateDocumentTable(&catalog, "DOCUMENT");
  ASSERT_TRUE(doc_table.ok());
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(classify::InsertDocument(doc_table.value(), i + 1,
                                         make_doc(leaves[i % 4]))
                    .ok());
  }

  classify::BulkProbeClassifier bulk(&ref, &tables.value());
  bulk.SetEngine(ExecEngine::kScalar);
  auto scalar = bulk.ClassifyAll(doc_table.value());
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  bulk.SetEngine(ExecEngine::kVectorized);
  auto vectorized = bulk.ClassifyAll(doc_table.value());
  ASSERT_TRUE(vectorized.ok()) << vectorized.status();
  bulk.SetEngine(ExecEngine::kEncoded);
  auto encoded = bulk.ClassifyAll(doc_table.value());
  ASSERT_TRUE(encoded.ok()) << encoded.status();

  ASSERT_EQ(scalar.value().size(), vectorized.value().size());
  ASSERT_EQ(scalar.value().size(), encoded.value().size());
  for (const auto& [doc, expected] : scalar.value()) {
    auto it = vectorized.value().find(doc);
    ASSERT_NE(it, vectorized.value().end()) << "doc " << doc;
    ASSERT_EQ(it->second.logp.size(), expected.logp.size());
    auto enc_it = encoded.value().find(doc);
    ASSERT_NE(enc_it, encoded.value().end()) << "doc " << doc;
    ASSERT_EQ(enc_it->second.logp.size(), expected.logp.size());
    for (size_t c = 0; c < expected.logp.size(); ++c) {
      EXPECT_NEAR(it->second.logp[c], expected.logp[c], 1e-9)
          << "doc " << doc << " cid " << c;
      // The encoded plan runs the same floating-point operations in the
      // same order as the vectorized one (codes only replace join keys;
      // the STAT semi-join drops rows that never contributed), so it is
      // bit-identical to it, not merely close.
      EXPECT_EQ(enc_it->second.logp[c], it->second.logp[c])
          << "doc " << doc << " cid " << c;
    }
  }
}

// ---- Figure 4: JoinDistiller scalar vs vectorized ----

struct DistillFixture {
  storage::MemDiskManager disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<Catalog> catalog;
  distill::DistillTables tables;

  // Builds LINK/CRAWL from the same seeded random graph, so two fixtures
  // with equal seeds hold byte-identical inputs.
  Status Build(uint64_t seed, int pages, int servers, int edges) {
    pool = std::make_unique<storage::BufferPool>(&disk, 2048);
    catalog = std::make_unique<Catalog>(pool.get());
    FOCUS_ASSIGN_OR_RETURN(
        tables.link,
        catalog->CreateTable(
            "LINK",
            Schema({{"oid_src", TypeId::kInt64},
                    {"sid_src", TypeId::kInt32},
                    {"oid_dst", TypeId::kInt64},
                    {"sid_dst", TypeId::kInt32},
                    {"wgt_fwd", TypeId::kDouble},
                    {"wgt_rev", TypeId::kDouble}}),
            {IndexSpec{"by_src", {0}, {}}, IndexSpec{"by_dst", {2}, {}}}));
    FOCUS_ASSIGN_OR_RETURN(
        tables.crawl,
        catalog->CreateTable(
            "CRAWL",
            Schema({{"oid", TypeId::kInt64},
                    {"relevance", TypeId::kDouble}}),
            {IndexSpec{"by_oid", {0}, {}}}));
    Rng rng(seed);
    auto sid = [&](int64_t oid) {
      return static_cast<int32_t>(oid % servers);
    };
    for (int64_t oid = 1; oid <= pages; ++oid) {
      FOCUS_RETURN_IF_ERROR(
          tables.crawl
              ->Insert(Tuple(
                  {Value::Int64(oid), Value::Double(rng.NextDouble())}))
              .status());
    }
    for (int e = 0; e < edges; ++e) {
      int64_t src = 1 + static_cast<int64_t>(rng.Uniform(pages));
      int64_t dst = 1 + static_cast<int64_t>(rng.Uniform(pages));
      FOCUS_RETURN_IF_ERROR(
          tables.link
              ->Insert(Tuple({Value::Int64(src), Value::Int32(sid(src)),
                              Value::Int64(dst), Value::Int32(sid(dst)),
                              Value::Double(0.5 + rng.NextDouble()),
                              Value::Double(0.5 + rng.NextDouble())}))
              .status());
    }
    return distill::CreateHubsAuthTables(catalog.get(), &tables);
  }
};

std::vector<std::pair<int64_t, double>> TableRows(Table* t) {
  std::vector<std::pair<int64_t, double>> out;
  auto it = t->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    out.emplace_back(row.Get(0).AsInt64(), row.Get(1).AsDouble());
  }
  EXPECT_TRUE(it.status().ok());
  return out;
}

TEST(EngineEquivalenceTest, DistillerRankingsIdentical) {
  for (uint64_t seed : {7u, 21u, 99u}) {
    DistillFixture scalar_fx, vec_fx, enc_fx;
    ASSERT_TRUE(scalar_fx.Build(seed, 60, 9, 400).ok());
    ASSERT_TRUE(vec_fx.Build(seed, 60, 9, 400).ok());
    ASSERT_TRUE(enc_fx.Build(seed, 60, 9, 400).ok());

    distill::JoinDistiller scalar(scalar_fx.tables);
    scalar.SetEngine(ExecEngine::kScalar);
    ASSERT_TRUE(scalar.Initialize().ok());
    distill::JoinDistiller vectorized(vec_fx.tables);
    vectorized.SetEngine(ExecEngine::kVectorized);
    ASSERT_TRUE(vectorized.Initialize().ok());
    distill::JoinDistiller encoded(enc_fx.tables);
    encoded.SetEngine(ExecEngine::kEncoded);
    ASSERT_TRUE(encoded.Initialize().ok());

    for (int iter = 0; iter < 4; ++iter) {
      ASSERT_TRUE(scalar.RunIteration(0.3).ok());
      ASSERT_TRUE(vectorized.RunIteration(0.3).ok());
      ASSERT_TRUE(encoded.RunIteration(0.3).ok());
    }

    for (auto [s_table, v_table, e_table] :
         {std::tuple{scalar_fx.tables.hubs, vec_fx.tables.hubs,
                     enc_fx.tables.hubs},
          std::tuple{scalar_fx.tables.auth, vec_fx.tables.auth,
                     enc_fx.tables.auth}}) {
      auto s_rows = TableRows(s_table);
      auto v_rows = TableRows(v_table);
      auto e_rows = TableRows(e_table);
      ASSERT_EQ(s_rows.size(), v_rows.size()) << "seed " << seed;
      ASSERT_EQ(s_rows.size(), e_rows.size()) << "seed " << seed;
      for (size_t i = 0; i < s_rows.size(); ++i) {
        // Identical ranking: same oid at every (score-ordered) heap slot.
        EXPECT_EQ(s_rows[i].first, v_rows[i].first)
            << "seed " << seed << " row " << i;
        EXPECT_NEAR(s_rows[i].second, v_rows[i].second, 1e-9)
            << "seed " << seed << " row " << i;
        // Cost-model path choices only swap access paths that emit the
        // same rows in the same order, so the encoded run is bit-equal
        // to the vectorized one.
        EXPECT_EQ(e_rows[i].first, v_rows[i].first)
            << "seed " << seed << " row " << i;
        EXPECT_EQ(e_rows[i].second, v_rows[i].second)
            << "seed " << seed << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace focus::sql
