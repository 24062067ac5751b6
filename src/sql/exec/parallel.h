// Morsel-driven parallel batch execution.
//
// The vectorized operators (batch_ops.h) run one plan on one thread; the
// operators here run the same work split across a ThreadPool while
// producing bit-identical output, so `SetEngine(kParallel)` is a pure
// performance knob. The design follows the morsel-driven model: inputs are
// materialized, split into fixed-size morsels (or key-range partitions),
// and tasks pull the next piece from a shared counter so a slow morsel
// does not idle the other workers.
//
// Determinism contract (how bit-exactness with the serial engine holds):
//  - Partitioning is by key *value range* (the top bits of the same
//    order-preserving packed sort word the serial sort uses), never by
//    hash, so partition order is key order and concatenating per-partition
//    results reproduces the serial output order exactly.
//  - The scatter is stable: within a partition, rows keep arrival order,
//    so per-partition stable sorts concatenate to the global stable sort.
//  - Sorted-run aggregation never splits a group across partitions (equal
//    keys share a packed word, hence a partition), so floating-point sums
//    accumulate in exactly the serial visit order — no reassociation.
//  - Keys that cannot be packed (non-integer, NULLs, > 64 combined bits)
//    fall back to the serial kernels on the query thread, which are the
//    serial engine's own code paths.
//
// Every operator reports per-morsel/per-partition counters to the obs
// registry (focus_sql_parallel_*) and exposes them through
// BatchOperator::parallel_stats() for EXPLAIN ANALYZE.
#ifndef FOCUS_SQL_EXEC_PARALLEL_H_
#define FOCUS_SQL_EXEC_PARALLEL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/exec/batch_ops.h"
#include "util/thread_pool.h"

namespace focus::sql {

// Rows per morsel: large enough that task handoff is noise, small enough
// that ~hundreds of morsels exist for the paper-scale inputs and the pool
// load-balances skew.
inline constexpr int kDefaultMorselRows = 4096;

// log2 of the radix partition count for partitioned sorts/joins/
// aggregates: 32 partitions keeps every partition cache-friendly at the
// paper's table sizes while leaving the pool enough pieces to balance.
inline constexpr int kDefaultRadixBits = 5;

// Schedules morsels onto a private ThreadPool. `num_threads` is the total
// worker count including the calling thread (the caller participates), so
// 1 means inline serial execution and no pool is created.
class MorselDispatcher {
 public:
  explicit MorselDispatcher(int num_threads,
                            int morsel_rows = kDefaultMorselRows);

  int num_threads() const { return num_threads_; }
  int morsel_rows() const { return morsel_rows_; }

  // Runs fn(begin, end) for every chunk of `chunk` rows covering [0, n).
  // Workers pull the next chunk index from a shared counter; the caller
  // participates and returns only once every chunk has finished (the
  // completion handshake gives the caller happens-before over all task
  // writes). fn must write only to disjoint preallocated slots so the
  // result is independent of scheduling. Returns the number of chunks.
  // Runs inline (same results) when there is one thread or one chunk, or
  // when called from a task already running on this dispatcher's pool —
  // re-entrant dispatch would deadlock waiting on its own workers.
  uint64_t ParallelFor(size_t n, size_t chunk,
                       const std::function<void(size_t, size_t)>& fn);

 private:
  int num_threads_;
  int morsel_rows_;
  std::unique_ptr<ThreadPool> pool_;  // num_threads - 1 workers
  obs::Counter* morsels_total_ = nullptr;
  obs::Counter* tasks_total_ = nullptr;
};

// Row indices of one input grouped into key-range partitions: partition p
// owns idx[offsets[p] .. offsets[p+1]), stable (arrival order) within the
// partition. `packed` holds the row-indexed order-preserving sort word of
// every row (equal words <=> equal key values).
struct RadixPartitions {
  int num_partitions = 0;
  // Bits of the packed word still varying within one partition (the high
  // bits are the partition id): sorting a partition only orders these.
  int key_bits = 0;
  std::vector<int64_t> idx;
  std::vector<size_t> offsets;
  std::vector<uint64_t> packed;
};

// Order-preserving MSB-radix partition function over integer sort keys.
// Plan() computes the combined per-key value ranges of one or two inputs
// (both join sides must agree on the partition function), so the same
// key value lands in the same partition on either side; partition id is
// the top `radix_bits` of the packed sort word, making partitions
// contiguous key ranges in sort order.
class RadixPartitioner {
 public:
  // Returns nullopt when the keys cannot be packed: not 1-2 integer
  // columns, NULLs present, descending flags differing across sides, or
  // combined ranges over 64 bits. Callers then use the serial kernels.
  static std::optional<RadixPartitioner> Plan(
      int radix_bits, const ColumnSet& a, const std::vector<SortKey>& a_keys,
      const ColumnSet* b = nullptr,
      const std::vector<SortKey>* b_keys = nullptr);

  int num_partitions() const { return num_partitions_; }

  // Packs every row of `rows` on `keys` (same arity/direction as planned)
  // and stable-scatters the row indices into partitions, morsel-parallel
  // (per-chunk histograms, serial prefix sums, disjoint writes). Updates
  // `stats` and the focus_sql_parallel_* obs metrics.
  RadixPartitions Scatter(const ColumnSet& rows,
                          const std::vector<SortKey>& keys,
                          MorselDispatcher* dispatcher,
                          ParallelOpStats* stats) const;

 private:
  struct Field {
    bool desc;
    int64_t min, max;
    int bits;
  };

  uint64_t PackRow(const ColumnSet& rows, const std::vector<SortKey>& keys,
                   size_t row) const;

  std::vector<Field> fields_;
  int total_bits_ = 0;
  int shift_ = 0;  // packed >> shift_ = partition id
  int num_partitions_ = 1;
};

// Heap scan with parallel decode: one serial pass collects the raw heap
// records (the buffer pool is not safe for concurrent iteration), then
// morsels decode record ranges (RecordDecoder, as BatchTableScan does)
// into per-morsel column chunks that concatenate in scan order — the exact
// BatchTableScan output.
class ParallelTableScan final : public BatchOperator {
 public:
  ParallelTableScan(const Table* table, MorselDispatcher* dispatcher,
                    std::vector<int> cols = {},
                    int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override {
    return decoder_.output_schema();
  }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  const Table* table_;
  MorselDispatcher* dispatcher_;
  RecordDecoder decoder_;
  int batch_rows_;
  ColumnSet rows_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Filter/project with one morsel per input batch: the child is drained on
// the query thread (batches are shared-column handles, so staging is
// cheap), morsels evaluate independent batches into preallocated slots,
// and emission walks the slots in input order.
class ParallelFilter final : public BatchOperator {
 public:
  ParallelFilter(BatchOperatorPtr child, BatchPredicate pred,
                 MorselDispatcher* dispatcher)
      : BatchOperator("parallel_filter"),
        child_(std::move(child)),
        pred_(std::move(pred)),
        dispatcher_(dispatcher) {}

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  BatchPredicate pred_;  // must be pure: called concurrently
  MorselDispatcher* dispatcher_;
  std::vector<Batch> staged_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

class ParallelProject final : public BatchOperator {
 public:
  ParallelProject(BatchOperatorPtr child, std::vector<BatchExpr> exprs,
                  MorselDispatcher* dispatcher);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<BatchExpr> exprs_;  // evals must be pure: called concurrently
  MorselDispatcher* dispatcher_;
  Schema schema_;
  std::vector<Batch> staged_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Partitioned sort: radix-scatter into key ranges, stable-sort each
// partition in parallel, concatenate — the global stable sort permutation
// of BatchSort, emitted in the same gathered batches.
class ParallelSort final : public BatchOperator {
 public:
  ParallelSort(BatchOperatorPtr child, std::vector<SortKey> keys,
               MorselDispatcher* dispatcher,
               int radix_bits = kDefaultRadixBits,
               int batch_rows = kDefaultBatchRows)
      : BatchOperator("parallel_sort"),
        child_(std::move(child)),
        keys_(std::move(keys)),
        dispatcher_(dispatcher),
        radix_bits_(radix_bits),
        batch_rows_(batch_rows) {}

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<SortKey> keys_;
  MorselDispatcher* dispatcher_;
  int radix_bits_;
  int batch_rows_;
  ColumnSet rows_;
  std::vector<int64_t> order_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Fused sort + merge join over *unsorted* children: both sides are
// partitioned with one shared partition function, each partition is
// sorted and merge-joined independently, and per-partition index pairs
// concatenate to exactly the output of
// BatchMergeJoin(BatchSort(left), BatchSort(right)) — equal keys never
// cross a partition boundary, and left-outer NULL padding lands at the
// same positions.
class ParallelMergeJoin final : public BatchOperator {
 public:
  ParallelMergeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                    std::vector<int> left_keys, std::vector<int> right_keys,
                    MorselDispatcher* dispatcher, bool left_outer = false,
                    int radix_bits = kDefaultRadixBits,
                    int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  Status Load();

  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  MorselDispatcher* dispatcher_;
  bool left_outer_;
  int radix_bits_;
  int batch_rows_;
  Schema schema_;
  ColumnSet lrows_, rrows_;
  std::vector<int64_t> li_, ri_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Morsel-parallel index-probe join (the cost model's kIndexProbe arm on
// the parallel engine): both inputs must arrive sorted ascending on their
// single join key — typically dictionary-code columns the plan sorted
// anyway. The outer side splits into morsels and every morsel probes the
// shared sorted inner independently (binary search per key run, or an
// O(1) dense run-table lookup when the inner key is a dictionary-code
// domain); morsel results concatenate in morsel order, which is exactly
// BatchProbeJoin's — and the merge join's — left-major emission at any
// thread count.
class ParallelProbeJoin final : public BatchOperator {
 public:
  ParallelProbeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                    int left_key, int right_key, MorselDispatcher* dispatcher,
                    bool left_outer = false, int64_t dense_domain = 0,
                    int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  Status Load();

  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  int left_key_;
  int right_key_;
  MorselDispatcher* dispatcher_;
  bool left_outer_;
  int64_t dense_domain_;
  int batch_rows_;
  Schema schema_;
  ColumnSet lrows_, rrows_;
  std::vector<int64_t> li_, ri_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Partitioned hash join (inner only): both sides radix-partition on the
// packed key word, each partition builds a word-keyed hash table over its
// right rows and probes its left rows. Output order is deterministic and
// thread-count independent — partition (key-range) major, then left
// arrival order — but differs from the merge join's sorted order; used
// when the consumer does not need sorted output. Keys must be packable;
// the first NextBatch fails with InvalidArgument otherwise.
class ParallelHashJoin final : public BatchOperator {
 public:
  ParallelHashJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                   std::vector<int> left_keys, std::vector<int> right_keys,
                   MorselDispatcher* dispatcher,
                   int radix_bits = kDefaultRadixBits,
                   int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  MorselDispatcher* dispatcher_;
  int radix_bits_;
  int batch_rows_;
  Schema schema_;
  ColumnSet lrows_, rrows_;
  std::vector<int64_t> li_, ri_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Partitioned sort-aggregate: radix-partition, sort each partition, run
// the shared sorted-run kernel per partition, concatenate. Groups never
// span partitions, so output rows and their double-accumulation order are
// exactly BatchSortAggregate's.
class ParallelSortAggregate final : public BatchOperator {
 public:
  ParallelSortAggregate(BatchOperatorPtr child, std::vector<SortKey> sort_keys,
                        std::vector<int> group_cols,
                        std::vector<AggSpec> aggs, MorselDispatcher* dispatcher,
                        int radix_bits = kDefaultRadixBits,
                        int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<SortKey> sort_keys_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  MorselDispatcher* dispatcher_;
  int radix_bits_;
  int batch_rows_;
  Schema schema_;
  ColumnSet agg_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Exchange: runs N independent child plans concurrently (one task per
// child) and emits their results concatenated in child order — the
// deterministic gather that recombines per-plan partial results.
// Children are Opened/Closed on the query thread but drained on pool
// threads, so they must not be EXPLAIN ANALYZE-wrapped (PlanStats
// recording is single-threaded) and must not share mutable state.
class ExchangeGather final : public BatchOperator {
 public:
  ExchangeGather(std::vector<BatchOperatorPtr> children,
                 MorselDispatcher* dispatcher,
                 int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  std::vector<BatchOperatorPtr> children_;
  MorselDispatcher* dispatcher_;
  int batch_rows_;
  Schema schema_;
  ColumnSet rows_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

// Exchange: drains N children concurrently, then k-way merges their
// (already sorted on `keys`) outputs with child index as the tiebreak —
// deterministic, and equal to the serial concatenate-and-stable-sort when
// children are sorted runs split in child order.
class ExchangeMerge final : public BatchOperator {
 public:
  ExchangeMerge(std::vector<BatchOperatorPtr> children,
                std::vector<SortKey> keys, MorselDispatcher* dispatcher,
                int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  const ParallelOpStats* parallel_stats() const override { return &stats_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  std::vector<BatchOperatorPtr> children_;
  std::vector<SortKey> keys_;
  MorselDispatcher* dispatcher_;
  int batch_rows_;
  Schema schema_;
  ColumnSet rows_;
  size_t pos_ = 0;
  bool loaded_ = false;
  ParallelOpStats stats_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_PARALLEL_H_
