// Vectorized (batch-at-a-time) executor operators.
//
// The scalar Volcano engine (operator.h) pays one virtual call and one
// Tuple assembly per row; these operators move a Batch (batch.h) of ~1024
// rows per call and work directly on flat column vectors. The set covers
// exactly what the Figure 3 (BulkProbe) and Figure 4 (join distillation)
// plans use: table scan, selection-vector filter, projection/expression,
// sort, merge join (inner and left outer), cross join against a small
// build side, and grouped sum/count over sorted runs. Vectorize/
// Devectorize adapters let scalar and batch operators compose during
// migration, so plans can move over one operator at a time.
//
// Every operator reports to the obs registry: focus_sql_batches_total,
// a focus_sql_rows_per_batch histogram, and per-operator self-time
// counters (focus_sql_batch_op_micros_total{op=...}) — crawl_monitoring
// renders these to show where classify time goes.
#ifndef FOCUS_SQL_EXEC_BATCH_OPS_H_
#define FOCUS_SQL_EXEC_BATCH_OPS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sql/exec/aggregate.h"
#include "sql/exec/batch.h"
#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "sql/table.h"

namespace focus::sql {

// Redirects batch-engine metrics (nullptr = back to the process-wide
// registry). Takes effect for operators that have not yet executed.
void SetBatchMetricsRegistry(obs::MetricsRegistry* registry);

// The registry batch-engine metrics currently resolve to (the redirected
// one, else the process-wide registry). The parallel engine (parallel.h)
// reports its morsel/partition counters here too.
obs::MetricsRegistry* BatchMetricsRegistry();

// Per-operator counters a parallel operator exposes so EXPLAIN ANALYZE can
// render morsel/partition fan-out and skew (analyze.cc copies these into
// the plan node after each NextBatch).
struct ParallelOpStats {
  uint64_t morsels = 0;             // morsel tasks dispatched
  uint64_t partitions = 0;          // radix partitions formed (0 = serial)
  uint64_t max_partition_rows = 0;  // largest partition (skew signal)
};

// Base interface: Open / NextBatch / Close, mirroring the scalar
// Operator. NextBatch resets `out` and fills it; returns false when
// exhausted (out left empty). The non-virtual NextBatch wraps the
// subclass hook with metrics (batch count, rows/batch, self time).
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  virtual Status Open() = 0;
  Result<bool> NextBatch(Batch* out);
  virtual void Close() {}
  virtual const Schema& schema() const = 0;

  // Non-null for parallel operators (parallel.h): morsel/partition counts
  // of the work done so far, for EXPLAIN ANALYZE.
  virtual const ParallelOpStats* parallel_stats() const { return nullptr; }

 protected:
  // `op_name` keys the per-operator obs metrics; nullptr (used by the
  // EXPLAIN ANALYZE wrapper) records nothing.
  explicit BatchOperator(const char* op_name) : op_name_(op_name) {}
  virtual Result<bool> DoNextBatch(Batch* out) = 0;

 private:
  const char* op_name_;
  obs::Counter* batches_total_ = nullptr;
  obs::Histogram* rows_per_batch_ = nullptr;
  obs::Counter* self_micros_ = nullptr;
};

using BatchOperatorPtr = std::unique_ptr<BatchOperator>;

// Heap scan in batches. `cols` prunes the output to those columns (empty
// = all) — plans over CRAWL read two of its columns and never copy URL
// payloads into the batch arena. Each NextBatch pins one heap page at a
// time, decodes its records straight into the batch's column vectors
// (RecordDecoder) and unpins before it returns, so no pin outlives the
// call.
class BatchTableScan final : public BatchOperator {
 public:
  explicit BatchTableScan(const Table* table, std::vector<int> cols = {},
                          int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override { it_.reset(); }
  const Schema& schema() const override {
    return decoder_.output_schema();
  }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  const Table* table_;
  RecordDecoder decoder_;
  int batch_rows_;
  std::optional<Table::Iterator> it_;
};

// Borrowing source over a materialized ColumnSet (the batch analogue of
// BorrowedSource). A set that fits one batch is forwarded zero-copy.
class BatchSource final : public BatchOperator {
 public:
  explicit BatchSource(const ColumnSet* set,
                       int batch_rows = kDefaultBatchRows)
      : BatchOperator("source"), set_(set), batch_rows_(batch_rows) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  const Schema& schema() const override { return set_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  const ColumnSet* set_;
  int batch_rows_;
  size_t pos_ = 0;
};

// Adapter: pulls a scalar child and packs tuples into batches.
class Vectorize final : public BatchOperator {
 public:
  explicit Vectorize(OperatorPtr child, int batch_rows = kDefaultBatchRows)
      : BatchOperator("vectorize"),
        child_(std::move(child)),
        batch_rows_(batch_rows) {}

  Status Open() override { return child_->Open(); }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  OperatorPtr child_;
  int batch_rows_;
  Tuple row_;
};

// Adapter: exposes a batch plan as a scalar Operator.
class Devectorize final : public Operator {
 public:
  explicit Devectorize(BatchOperatorPtr child) : child_(std::move(child)) {}

  Status Open() override;
  Result<bool> Next(Tuple* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  BatchOperatorPtr child_;
  Batch batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

// Appends the indices of qualifying rows to `sel` (ascending).
using BatchPredicate =
    std::function<void(const Batch& in, std::vector<int64_t>* sel)>;

// Selection-vector filter: the predicate marks qualifying rows, then one
// gather per column compacts them. A batch where every row qualifies is
// forwarded zero-copy.
class BatchFilter final : public BatchOperator {
 public:
  BatchFilter(BatchOperatorPtr child, BatchPredicate pred)
      : BatchOperator("filter"),
        child_(std::move(child)),
        pred_(std::move(pred)) {}

  Status Open() override { return child_->Open(); }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  BatchPredicate pred_;
  Batch in_;
  std::vector<int64_t> sel_;
};

// One output column: name/type plus a column-at-a-time evaluator.
struct BatchExpr {
  std::string name;
  TypeId type;
  std::function<ColumnPtr(const Batch& in)> eval;

  // Pass-through of input column `col` (forwards the ColumnPtr).
  static BatchExpr Passthrough(std::string name, TypeId type, int col);
};

class BatchProject final : public BatchOperator {
 public:
  BatchProject(BatchOperatorPtr child, std::vector<BatchExpr> exprs);

  Status Open() override { return child_->Open(); }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<BatchExpr> exprs_;
  Schema schema_;
  Batch in_;
};

// Materializing sort: drains the child into a ColumnSet, stable-sorts an
// index permutation on `keys`, emits gathered batches. Stability keeps
// the scalar engine's within-group arrival order, so downstream
// floating-point accumulation matches the scalar plan bit-for-bit.
class BatchSort final : public BatchOperator {
 public:
  BatchSort(BatchOperatorPtr child, std::vector<SortKey> keys,
            int batch_rows = kDefaultBatchRows)
      : BatchOperator("sort"),
        child_(std::move(child)),
        keys_(std::move(keys)),
        batch_rows_(batch_rows) {}

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<SortKey> keys_;
  int batch_rows_;
  ColumnSet rows_;
  std::vector<int64_t> order_;
  std::vector<uint64_t> packed_;  // injective sort keys; empty if unused
  size_t pos_ = 0;
  bool loaded_ = false;
};

// Merge join over inputs sorted ascending on their key columns. Both
// sides are materialized, the merge produces (left, right) index pairs
// (right -1 = NULL padding under left_outer), and output batches are
// gathered from the pair arrays.
class BatchMergeJoin final : public BatchOperator {
 public:
  BatchMergeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 bool left_outer = false,
                 int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  Status Merge();

  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  bool left_outer_;
  int batch_rows_;
  Schema schema_;

  ColumnSet lrows_, rrows_;
  std::vector<int64_t> li_, ri_;
  size_t pos_ = 0;
  bool merged_ = false;
};

// Index-probe join: the access path the cost model (cost_model.h) pits
// against BatchMergeJoin. Both inputs must arrive sorted ascending on
// their single join key (exactly the merge join's precondition); instead
// of scanning the inner side row by row, each distinct outer key run
// binary-searches the inner for its matching run — or, when the inner key
// is a dense dictionary-code domain (kInt32, NULL-free, values in
// [0, dense_domain)), looks it up in an O(1) run table built in one pass.
// Emission is left-major within key groups, identical pair-for-pair to
// BatchMergeJoin, so swapping the two operators never changes results —
// only which side's size dominates the cost (Fig. 8).
class BatchProbeJoin final : public BatchOperator {
 public:
  // `dense_domain` > 0 enables the run-table fast path (the inner key
  // column must then hold codes in [0, dense_domain)).
  BatchProbeJoin(BatchOperatorPtr left, BatchOperatorPtr right, int left_key,
                 int right_key, bool left_outer = false,
                 int64_t dense_domain = 0,
                 int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  Status Probe();

  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  int left_key_;
  int right_key_;
  bool left_outer_;
  int64_t dense_domain_;
  int batch_rows_;
  Schema schema_;

  ColumnSet lrows_, rrows_;
  std::vector<int64_t> li_, ri_;
  size_t pos_ = 0;
  bool probed_ = false;
};

// Cross join against a small materialized right side (the DOCLEN x
// children step of Figure 3).
class BatchCrossJoin final : public BatchOperator {
 public:
  BatchCrossJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                 int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  int batch_rows_;
  Schema schema_;

  ColumnSet lrows_, rrows_;
  size_t pos_ = 0;  // over the n_left * n_right logical pairs
  bool loaded_ = false;
};

// Grouped aggregation over an input already sorted by `group_cols`:
// sum/count accumulate over each sorted run and emit one row per group,
// streaming (no hash table, no materialized output). Output columns are
// the group columns followed by one column per spec; types and the
// accumulate-in-double behavior match HashAggregate exactly, and output
// order (input sorted order) matches HashAggregate's ascending std::map
// emission when the sort keys are the group columns.
class BatchSortedAggregate final : public BatchOperator {
 public:
  BatchSortedAggregate(BatchOperatorPtr child, std::vector<int> group_cols,
                       std::vector<AggSpec> aggs,
                       int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  void EmitGroup(Batch* out);

  BatchOperatorPtr child_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  int batch_rows_;
  Schema schema_;

  Batch in_;
  size_t in_pos_ = 0;
  bool in_valid_ = false;
  bool input_done_ = false;

  bool group_open_ = false;
  std::vector<Value> group_key_;
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

// Fused sort + sorted-run aggregation: materializes the child, sorts a
// row permutation, and aggregates runs by walking the permutation, so the
// sorted intermediate is never gathered into batches. Produces exactly
// the output of BatchSortedAggregate(BatchSort(child, sort_keys), ...),
// including the floating-point accumulation order.
class BatchSortAggregate final : public BatchOperator {
 public:
  BatchSortAggregate(BatchOperatorPtr child, std::vector<SortKey> sort_keys,
                     std::vector<int> group_cols, std::vector<AggSpec> aggs,
                     int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<SortKey> sort_keys_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  int batch_rows_;
  Schema schema_;

  ColumnSet rows_;  // staged input; released once aggregated
  ColumnSet agg_;   // the aggregated result, emitted in batch_rows chunks
  size_t pos_ = 0;
  bool loaded_ = false;
};

// Drains `op` into `out` (Open/NextBatch/Close included).
Status CollectInto(BatchOperator* op, ColumnSet* out);

// ---- shared executor kernels -------------------------------------------
//
// The serial batch operators above and the morsel-driven parallel
// operators (parallel.h) must produce bit-identical results, so the row
// kernels they share live here rather than being duplicated.

// Stable sort permutation of `rows` on `keys`. Uses the packed-int fast
// path when the keys are 1-2 NULL-free int columns whose compressed ranges
// fit one 64-bit word — `packed` is then filled with the row-indexed
// injective sort words (equal words <=> equal key values) — and falls back
// to a generic stable comparison sort (`packed` left empty).
void SortPermutation(const ColumnSet& rows, const std::vector<SortKey>& keys,
                     std::vector<int64_t>* order,
                     std::vector<uint64_t>* packed);

// Emits the (left, right) row-index pairs of the sorted merge join
// lrows[lidx[0..nl)] ⋈ rrows[ridx[0..nr)]; a null lidx/ridx means the
// identity over all rows. Inputs must arrive sorted ascending on their key
// columns (through the index arrays). Output is left-major within each key
// group — the scalar MergeJoin's order; right index -1 = NULL padding
// under left_outer. Appends to li/ri.
void MergeJoinIndices(const ColumnSet& lrows, const ColumnSet& rrows,
                      const std::vector<int>& left_keys,
                      const std::vector<int>& right_keys, bool left_outer,
                      const int64_t* lidx, size_t nl, const int64_t* ridx,
                      size_t nr, std::vector<int64_t>* li,
                      std::vector<int64_t>* ri);

// Run bounds per dictionary code over a sorted inner side: code c's
// matching rows are rk[lo[c] .. hi[c]). Built in one sequential pass;
// turns every probe into two array reads.
struct DenseRunTable {
  std::vector<int64_t> lo, hi;
};
DenseRunTable BuildDenseRunTable(const ColumnData& rk, int64_t domain);

// Emits the (left, right) row-index pairs of lrows[lbegin..lend) ⋈ rrows
// on one key column each, both sorted ascending, by binary-searching (or,
// given a dense run table, looking up) the right run for each left key
// run. Produces exactly the pairs MergeJoinIndices produces for the same
// inputs, in the same order; any [lbegin, lend) split of the left
// concatenates to the full result, which is what lets the parallel
// engine probe morsels independently. Appends to li/ri.
void ProbeJoinIndices(const ColumnSet& lrows, const ColumnSet& rrows,
                      int left_key, int right_key, bool left_outer,
                      const DenseRunTable* dense, size_t lbegin, size_t lend,
                      std::vector<int64_t>* li, std::vector<int64_t>* ri);

// Equality/range predicate on a dictionary-code column: keeps rows whose
// code lies in [lo_code, hi_code). The caller turns a value predicate
// into code bounds with one dictionary probe (ColumnDictionary::
// LowerBound/UpperBound), so the per-row work is two int compares — no
// value comparisons, no string walks. NULL (negative) codes never pass.
BatchPredicate CodeRangePredicate(int col, int32_t lo_code, int32_t hi_code);

// Membership (semi-join) predicate: keeps rows whose column value is in
// the sorted value column `domain` (no NULLs), one binary search per row
// — the dictionary-probe replacement for joining against a distinct-key
// side that contributes no payload. `domain` is shared, not copied.
BatchPredicate DomainMembershipPredicate(int col, ColumnPtr domain);

// Output schema of a sorted-run aggregate: the group columns followed by
// one column per spec (types exactly as HashAggregate).
Schema SortedAggSchema(const Schema& in, const std::vector<int>& group_cols,
                       const std::vector<AggSpec>& aggs);

// True when `packed` sort words decide group boundaries: the group columns
// are exactly the sort-key columns (packing is injective), the condition
// both run-aggregation operators share.
bool GroupsMatchSortKeys(const std::vector<int>& group_cols,
                         const std::vector<SortKey>& sort_keys);

// Aggregates the sorted runs of `rows` visited through order[begin..end)
// and appends one row per group to `out` (schema = SortedAggSchema).
// Group boundaries compare packed words (row-indexed; pass nullptr to
// compare the group columns directly). Sums accumulate in double in
// visit order — the exact arithmetic of BatchSortedAggregate.
void AggregateSortedRuns(const ColumnSet& rows,
                         const std::vector<int64_t>& order, size_t begin,
                         size_t end, const uint64_t* packed,
                         const std::vector<int>& group_cols,
                         const std::vector<AggSpec>& aggs, ColumnSet* out);

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_BATCH_OPS_H_
