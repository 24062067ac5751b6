#include "sql/exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "util/logging.h"

namespace focus::sql {

namespace {

int64_t IntAt(const ColumnData& col, size_t row) {
  return col.type == TypeId::kInt32 ? static_cast<int64_t>(col.i32[row])
                                    : col.i64[row];
}

// Drains `child` (already Opened) into cheap shared-column Batch handles.
Status DrainBatches(BatchOperator* child, std::vector<Batch>* out) {
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child->NextBatch(&b));
    if (!more) return Status::OK();
    out->push_back(b);
  }
}

// Drains `child` (already Opened) into a materialized ColumnSet.
Status DrainInto(BatchOperator* child, ColumnSet* out) {
  *out = ColumnSet(child->schema());
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child->NextBatch(&b));
    if (!more) return Status::OK();
    out->AppendBatch(b);
  }
}

void AppendSet(const ColumnSet& src, ColumnSet* dst) {
  for (int i = 0; i < src.num_columns(); ++i) {
    dst->mutable_col(i)->AppendRange(src.col(i), 0, src.num_rows());
  }
}

// Copies rows [pos, pos + batch_rows) of `set` into `out`; advances *pos.
bool EmitChunk(const ColumnSet& set, size_t* pos, int batch_rows,
               Batch* out) {
  size_t n = set.num_rows();
  if (*pos >= n) return false;
  size_t end = std::min(n, *pos + static_cast<size_t>(batch_rows));
  for (int i = 0; i < set.num_columns(); ++i) {
    ColumnPtr col = NewColumn(set.col(i).type);
    col->Reserve(end - *pos);
    col->AppendRange(set.col(i), *pos, end);
    out->AddColumn(std::move(col));
  }
  *pos = end;
  return true;
}

// Stable-sorts partition p's index slice by packed word; stability keeps
// the scatter's arrival order for equal keys, so the concatenation over
// partitions is the global stable sort permutation. Every word in the
// slice shares the partition's high bits, so an LSD radix pass over the
// low key_bits is the full order — the same kernel the serial sort uses,
// with the comparator sort kept for slices too small to pay for the
// counting passes (and for wide residual keys, mirroring the serial
// fallback).
void SortPartition(RadixPartitions* parts, size_t p) {
  const std::vector<uint64_t>& packed = parts->packed;
  int64_t* idx = parts->idx.data() + parts->offsets[p];
  size_t n = parts->offsets[p + 1] - parts->offsets[p];
  if (n < 2) return;
  if (n < 256 || parts->key_bits > 32) {
    std::stable_sort(idx, idx + n, [&packed](int64_t a, int64_t b) {
      return packed[a] < packed[b];
    });
    return;
  }
  std::vector<int64_t> tmp(n);
  int64_t* src = idx;
  int64_t* dst = tmp.data();
  for (int shift = 0; shift < parts->key_bits; shift += 8) {
    size_t count[257] = {0};
    for (size_t i = 0; i < n; ++i) {
      ++count[((packed[src[i]] >> shift) & 0xFF) + 1];
    }
    for (int d = 0; d < 256; ++d) count[d + 1] += count[d];
    for (size_t i = 0; i < n; ++i) {
      dst[count[(packed[src[i]] >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != idx) std::copy(src, src + n, idx);
}

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

// --------------------------------------------------- morsel dispatcher --

MorselDispatcher::MorselDispatcher(int num_threads, int morsel_rows)
    : num_threads_(std::max(1, num_threads)),
      morsel_rows_(std::max(1, morsel_rows)) {
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_ - 1);
  }
}

uint64_t MorselDispatcher::ParallelFor(
    size_t n, size_t chunk, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return 0;
  if (chunk == 0) chunk = 1;
  size_t chunks = (n + chunk - 1) / chunk;
  if (morsels_total_ == nullptr) {
    obs::MetricsRegistry* reg = BatchMetricsRegistry();
    morsels_total_ = reg->GetCounter("focus_sql_parallel_morsels_total");
    tasks_total_ = reg->GetCounter("focus_sql_parallel_tasks_total");
  }
  morsels_total_->Add(chunks);
  if (pool_ == nullptr || chunks <= 1 ||
      ThreadPool::CurrentPool() == pool_.get()) {
    tasks_total_->Inc();
    for (size_t c = 0; c < chunks; ++c) {
      size_t begin = c * chunk;
      fn(begin, std::min(n, begin + chunk));
    }
    return chunks;
  }

  struct State {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    int outstanding = 0;
  };
  auto state = std::make_shared<State>();
  auto worker = [state, &fn, n, chunk, chunks] {
    size_t c;
    while ((c = state->next.fetch_add(1, std::memory_order_relaxed)) <
           chunks) {
      size_t begin = c * chunk;
      fn(begin, std::min(n, begin + chunk));
    }
  };
  // The caller is one of the workers; helpers cover the rest. `fn` and the
  // captured sizes outlive the tasks because the caller blocks below until
  // every helper finished.
  int helpers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads_ - 1), chunks - 1));
  state->outstanding = helpers;
  tasks_total_->Add(static_cast<uint64_t>(helpers) + 1);
  for (int i = 0; i < helpers; ++i) {
    pool_->Submit([state, worker] {
      worker();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->outstanding == 0) state->done.notify_all();
    });
  }
  worker();
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&state] { return state->outstanding == 0; });
  return chunks;
}

// -------------------------------------------------- radix partitioner --

std::optional<RadixPartitioner> RadixPartitioner::Plan(
    int radix_bits, const ColumnSet& a, const std::vector<SortKey>& a_keys,
    const ColumnSet* b, const std::vector<SortKey>* b_keys) {
  if (a_keys.empty() || a_keys.size() > 2) return std::nullopt;
  if (b != nullptr && b_keys->size() != a_keys.size()) return std::nullopt;
  RadixPartitioner part;
  for (size_t k = 0; k < a_keys.size(); ++k) {
    Field f{a_keys[k].descending, 0, 0, 0};
    bool seen = false;
    const ColumnSet* sides[2] = {&a, b};
    const std::vector<SortKey>* side_keys[2] = {&a_keys, b_keys};
    for (int s = 0; s < 2; ++s) {
      if (sides[s] == nullptr) continue;
      const SortKey& key = (*side_keys[s])[k];
      if (key.descending != f.desc) return std::nullopt;
      const ColumnData& col = sides[s]->col(key.col);
      if (col.type != TypeId::kInt32 && col.type != TypeId::kInt64) {
        return std::nullopt;
      }
      size_t n = sides[s]->num_rows();
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) return std::nullopt;
        int64_t v = IntAt(col, i);
        if (!seen) {
          f.min = f.max = v;
          seen = true;
        } else {
          f.min = std::min(f.min, v);
          f.max = std::max(f.max, v);
        }
      }
    }
    uint64_t range =
        static_cast<uint64_t>(f.max) - static_cast<uint64_t>(f.min);
    f.bits = range == 0 ? 0 : std::bit_width(range);
    part.total_bits_ += f.bits;
    part.fields_.push_back(f);
  }
  if (part.total_bits_ > 64) return std::nullopt;
  int pbits = std::min(std::max(radix_bits, 0), part.total_bits_);
  part.shift_ = part.total_bits_ - pbits;
  part.num_partitions_ = 1 << pbits;
  return part;
}

uint64_t RadixPartitioner::PackRow(const ColumnSet& rows,
                                   const std::vector<SortKey>& keys,
                                   size_t row) const {
  uint64_t word = 0;
  for (size_t k = 0; k < fields_.size(); ++k) {
    const Field& f = fields_[k];
    uint64_t v = static_cast<uint64_t>(IntAt(rows.col(keys[k].col), row));
    uint64_t field = f.desc ? static_cast<uint64_t>(f.max) - v
                            : v - static_cast<uint64_t>(f.min);
    word = (word << f.bits) | field;
  }
  return word;
}

RadixPartitions RadixPartitioner::Scatter(const ColumnSet& rows,
                                          const std::vector<SortKey>& keys,
                                          MorselDispatcher* dispatcher,
                                          ParallelOpStats* stats) const {
  FOCUS_CHECK(keys.size() == fields_.size(),
              "Scatter key arity differs from Plan");
  RadixPartitions out;
  out.num_partitions = num_partitions_;
  out.key_bits = shift_;
  out.offsets.assign(num_partitions_ + 1, 0);
  size_t n = rows.num_rows();
  out.packed.resize(n);
  out.idx.resize(n);
  if (n == 0) return out;

  size_t chunk = static_cast<size_t>(dispatcher->morsel_rows());
  size_t chunks = (n + chunk - 1) / chunk;
  // Pass 1: pack every row and count per-(chunk, partition) occupancy.
  std::vector<std::vector<size_t>> hist(
      chunks, std::vector<size_t>(num_partitions_, 0));
  stats->morsels += dispatcher->ParallelFor(n, chunk, [&](size_t b, size_t e) {
    std::vector<size_t>& h = hist[b / chunk];
    for (size_t i = b; i < e; ++i) {
      uint64_t word = PackRow(rows, keys, i);
      out.packed[i] = word;
      ++h[word >> shift_];
    }
  });
  // Serial prefix sums: chunk c's rows of partition p start at start[c][p],
  // laid out partition-major then chunk-major — the stable scatter order.
  std::vector<std::vector<size_t>> start(chunks,
                                         std::vector<size_t>(num_partitions_));
  size_t run = 0;
  for (int p = 0; p < num_partitions_; ++p) {
    out.offsets[p] = run;
    for (size_t c = 0; c < chunks; ++c) {
      start[c][p] = run;
      run += hist[c][p];
    }
  }
  out.offsets[num_partitions_] = run;
  // Pass 2: scatter row indices into their reserved (disjoint) slots.
  stats->morsels += dispatcher->ParallelFor(n, chunk, [&](size_t b, size_t e) {
    std::vector<size_t>& s = start[b / chunk];
    for (size_t i = b; i < e; ++i) {
      out.idx[s[out.packed[i] >> shift_]++] = static_cast<int64_t>(i);
    }
  });

  stats->partitions =
      std::max(stats->partitions, static_cast<uint64_t>(num_partitions_));
  obs::MetricsRegistry* reg = BatchMetricsRegistry();
  obs::Counter* partitions_total =
      reg->GetCounter("focus_sql_parallel_partitions_total");
  obs::Histogram* partition_rows =
      reg->GetHistogram("focus_sql_parallel_partition_rows");
  partitions_total->Add(num_partitions_);
  for (int p = 0; p < num_partitions_; ++p) {
    uint64_t rows_p = out.offsets[p + 1] - out.offsets[p];
    partition_rows->Observe(rows_p);
    stats->max_partition_rows = std::max(stats->max_partition_rows, rows_p);
  }
  return out;
}

// ------------------------------------------------ parallel table scan --

ParallelTableScan::ParallelTableScan(const Table* table,
                                     MorselDispatcher* dispatcher,
                                     std::vector<int> cols, int batch_rows)
    : BatchOperator("parallel_scan"),
      table_(table),
      dispatcher_(dispatcher),
      decoder_(table->schema(), std::move(cols)),
      batch_rows_(batch_rows) {}

Status ParallelTableScan::Open() {
  rows_ = ColumnSet();
  pos_ = 0;
  loaded_ = false;
  return Status::OK();
}

void ParallelTableScan::Close() { rows_ = ColumnSet(); }

Result<bool> ParallelTableScan::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    std::vector<std::string> records;
    FOCUS_RETURN_IF_ERROR(table_->ScanRecords(&records));
    size_t n = records.size();
    size_t chunk = static_cast<size_t>(dispatcher_->morsel_rows());
    size_t chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
    // One independently-constructed ColumnSet per chunk: copying a
    // ColumnSet shares its reference-counted columns, so a fill
    // constructor would alias every slot to one set.
    std::vector<ColumnSet> parts;
    parts.reserve(chunks);
    const Schema& schema = decoder_.output_schema();
    for (size_t c = 0; c < chunks; ++c) parts.emplace_back(schema);
    std::vector<Status> errors(chunks);
    stats_.morsels +=
        dispatcher_->ParallelFor(n, chunk, [&](size_t b, size_t e) {
          size_t c = b / chunk;
          std::vector<ColumnData*> targets;
          for (int k = 0; k < schema.num_columns(); ++k) {
            targets.push_back(parts[c].mutable_col(k));
          }
          for (size_t i = b; i < e; ++i) {
            errors[c] = decoder_.Append(records[i], targets.data());
            if (!errors[c].ok()) return;
          }
        });
    FOCUS_RETURN_IF_ERROR(FirstError(errors));
    rows_ = ColumnSet(schema);
    for (const ColumnSet& part : parts) AppendSet(part, &rows_);
  }
  return EmitChunk(rows_, &pos_, batch_rows_, out);
}

// --------------------------------------------- parallel filter/project --

Status ParallelFilter::Open() {
  staged_.clear();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void ParallelFilter::Close() {
  staged_.clear();
  child_->Close();
}

Result<bool> ParallelFilter::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    std::vector<Batch> in;
    FOCUS_RETURN_IF_ERROR(DrainBatches(child_.get(), &in));
    staged_.assign(in.size(), Batch());
    stats_.morsels +=
        dispatcher_->ParallelFor(in.size(), 1, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            std::vector<int64_t> sel;
            pred_(in[i], &sel);
            if (sel.empty()) continue;
            if (sel.size() == in[i].num_rows()) {
              for (int c = 0; c < in[i].num_columns(); ++c) {
                staged_[i].AddColumn(in[i].col_ptr(c));
              }
            } else {
              for (int c = 0; c < in[i].num_columns(); ++c) {
                staged_[i].AddColumn(Gather(in[i].col(c), sel));
              }
            }
          }
        });
  }
  while (pos_ < staged_.size()) {
    Batch& b = staged_[pos_++];
    if (b.num_rows() == 0) continue;
    *out = std::move(b);
    return true;
  }
  return false;
}

ParallelProject::ParallelProject(BatchOperatorPtr child,
                                 std::vector<BatchExpr> exprs,
                                 MorselDispatcher* dispatcher)
    : BatchOperator("parallel_project"),
      child_(std::move(child)),
      exprs_(std::move(exprs)),
      dispatcher_(dispatcher) {
  std::vector<Column> cols;
  cols.reserve(exprs_.size());
  for (const BatchExpr& e : exprs_) cols.push_back({e.name, e.type});
  schema_ = Schema(std::move(cols));
}

Status ParallelProject::Open() {
  staged_.clear();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void ParallelProject::Close() {
  staged_.clear();
  child_->Close();
}

Result<bool> ParallelProject::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    std::vector<Batch> in;
    FOCUS_RETURN_IF_ERROR(DrainBatches(child_.get(), &in));
    staged_.assign(in.size(), Batch());
    stats_.morsels +=
        dispatcher_->ParallelFor(in.size(), 1, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            for (const BatchExpr& expr : exprs_) {
              staged_[i].AddColumn(expr.eval(in[i]));
            }
          }
        });
  }
  while (pos_ < staged_.size()) {
    Batch& b = staged_[pos_++];
    if (b.num_rows() == 0) continue;
    *out = std::move(b);
    return true;
  }
  return false;
}

// ------------------------------------------------------ parallel sort --

Status ParallelSort::Open() {
  rows_ = ColumnSet();
  order_.clear();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void ParallelSort::Close() {
  rows_ = ColumnSet();
  order_.clear();
  child_->Close();
}

Result<bool> ParallelSort::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    FOCUS_RETURN_IF_ERROR(DrainInto(child_.get(), &rows_));
    auto plan = RadixPartitioner::Plan(radix_bits_, rows_, keys_);
    if (!plan.has_value()) {
      // Unpackable keys: the serial engine's own sort, bit-exact by
      // construction.
      std::vector<uint64_t> packed;
      SortPermutation(rows_, keys_, &order_, &packed);
    } else {
      RadixPartitions parts = plan->Scatter(rows_, keys_, dispatcher_,
                                            &stats_);
      stats_.morsels += dispatcher_->ParallelFor(
          parts.num_partitions, 1, [&](size_t b, size_t e) {
            for (size_t p = b; p < e; ++p) SortPartition(&parts, p);
          });
      order_ = std::move(parts.idx);
    }
  }
  if (pos_ >= order_.size()) return false;
  size_t end =
      std::min(order_.size(), pos_ + static_cast<size_t>(batch_rows_));
  for (int i = 0; i < rows_.num_columns(); ++i) {
    out->AddColumn(Gather(rows_.col(i), order_.data() + pos_, end - pos_));
  }
  pos_ = end;
  return true;
}

// ------------------------------------------------ parallel merge join --

ParallelMergeJoin::ParallelMergeJoin(BatchOperatorPtr left,
                                     BatchOperatorPtr right,
                                     std::vector<int> left_keys,
                                     std::vector<int> right_keys,
                                     MorselDispatcher* dispatcher,
                                     bool left_outer, int radix_bits,
                                     int batch_rows)
    : BatchOperator("parallel_merge_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      dispatcher_(dispatcher),
      left_outer_(left_outer),
      radix_bits_(radix_bits),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status ParallelMergeJoin::Open() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  pos_ = 0;
  loaded_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void ParallelMergeJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  left_->Close();
  right_->Close();
}

Status ParallelMergeJoin::Load() {
  FOCUS_RETURN_IF_ERROR(DrainInto(left_.get(), &lrows_));
  FOCUS_RETURN_IF_ERROR(DrainInto(right_.get(), &rrows_));
  std::vector<SortKey> lkeys, rkeys;
  for (int c : left_keys_) lkeys.push_back(SortKey{c, false});
  for (int c : right_keys_) rkeys.push_back(SortKey{c, false});
  auto plan =
      RadixPartitioner::Plan(radix_bits_, lrows_, lkeys, &rrows_, &rkeys);
  if (!plan.has_value()) {
    // Unpackable keys: sort both sides and merge on the query thread with
    // the serial kernels.
    std::vector<int64_t> lorder, rorder;
    std::vector<uint64_t> packed;
    SortPermutation(lrows_, lkeys, &lorder, &packed);
    SortPermutation(rrows_, rkeys, &rorder, &packed);
    MergeJoinIndices(lrows_, rrows_, left_keys_, right_keys_, left_outer_,
                     lorder.data(), lorder.size(), rorder.data(),
                     rorder.size(), &li_, &ri_);
    return Status::OK();
  }
  RadixPartitions lparts = plan->Scatter(lrows_, lkeys, dispatcher_, &stats_);
  RadixPartitions rparts = plan->Scatter(rrows_, rkeys, dispatcher_, &stats_);
  int num_p = lparts.num_partitions;
  std::vector<std::vector<int64_t>> lis(num_p), ris(num_p);
  stats_.morsels += dispatcher_->ParallelFor(num_p, 1, [&](size_t b,
                                                           size_t e) {
    for (size_t p = b; p < e; ++p) {
      size_t ln = lparts.offsets[p + 1] - lparts.offsets[p];
      if (ln == 0) continue;  // no left rows: nothing joins (even outer)
      SortPartition(&lparts, p);
      SortPartition(&rparts, p);
      MergeJoinIndices(lrows_, rrows_, left_keys_, right_keys_, left_outer_,
                       lparts.idx.data() + lparts.offsets[p], ln,
                       rparts.idx.data() + rparts.offsets[p],
                       rparts.offsets[p + 1] - rparts.offsets[p], &lis[p],
                       &ris[p]);
    }
  });
  size_t total = 0;
  for (int p = 0; p < num_p; ++p) total += lis[p].size();
  li_.reserve(total);
  ri_.reserve(total);
  for (int p = 0; p < num_p; ++p) {
    li_.insert(li_.end(), lis[p].begin(), lis[p].end());
    ri_.insert(ri_.end(), ris[p].begin(), ris[p].end());
  }
  return Status::OK();
}

Result<bool> ParallelMergeJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    FOCUS_RETURN_IF_ERROR(Load());
  }
  if (pos_ >= li_.size()) return false;
  size_t end = std::min(li_.size(), pos_ + static_cast<size_t>(batch_rows_));
  size_t n = end - pos_;
  for (int i = 0; i < lrows_.num_columns(); ++i) {
    out->AddColumn(Gather(lrows_.col(i), li_.data() + pos_, n));
  }
  for (int i = 0; i < rrows_.num_columns(); ++i) {
    out->AddColumn(Gather(rrows_.col(i), ri_.data() + pos_, n));
  }
  pos_ = end;
  return true;
}

// ------------------------------------------------ parallel probe join --

ParallelProbeJoin::ParallelProbeJoin(BatchOperatorPtr left,
                                     BatchOperatorPtr right, int left_key,
                                     int right_key,
                                     MorselDispatcher* dispatcher,
                                     bool left_outer, int64_t dense_domain,
                                     int batch_rows)
    : BatchOperator("parallel_probe_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key),
      dispatcher_(dispatcher),
      left_outer_(left_outer),
      dense_domain_(dense_domain),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status ParallelProbeJoin::Open() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  pos_ = 0;
  loaded_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void ParallelProbeJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  left_->Close();
  right_->Close();
}

Status ParallelProbeJoin::Load() {
  FOCUS_RETURN_IF_ERROR(DrainInto(left_.get(), &lrows_));
  FOCUS_RETURN_IF_ERROR(DrainInto(right_.get(), &rrows_));
  DenseRunTable table;
  if (dense_domain_ > 0) {
    table = BuildDenseRunTable(rrows_.col(right_key_), dense_domain_);
  }
  const DenseRunTable* dense = dense_domain_ > 0 ? &table : nullptr;
  const size_t nl = lrows_.num_rows();
  const size_t chunk = static_cast<size_t>(dispatcher_->morsel_rows());
  const size_t num_morsels = nl == 0 ? 0 : (nl + chunk - 1) / chunk;
  std::vector<std::vector<int64_t>> lis(num_morsels), ris(num_morsels);
  // Each morsel probes its own left range; a key run split across morsel
  // boundaries still emits the same pairs because every left row finds
  // its right run independently of its neighbours.
  stats_.morsels += dispatcher_->ParallelFor(nl, chunk, [&](size_t b,
                                                            size_t e) {
    size_t m = b / chunk;
    ProbeJoinIndices(lrows_, rrows_, left_key_, right_key_, left_outer_,
                     dense, b, e, &lis[m], &ris[m]);
  });
  size_t total = 0;
  for (const auto& v : lis) total += v.size();
  li_.reserve(total);
  ri_.reserve(total);
  for (size_t m = 0; m < num_morsels; ++m) {
    li_.insert(li_.end(), lis[m].begin(), lis[m].end());
    ri_.insert(ri_.end(), ris[m].begin(), ris[m].end());
  }
  return Status::OK();
}

Result<bool> ParallelProbeJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    FOCUS_RETURN_IF_ERROR(Load());
  }
  if (pos_ >= li_.size()) return false;
  size_t end = std::min(li_.size(), pos_ + static_cast<size_t>(batch_rows_));
  size_t n = end - pos_;
  for (int i = 0; i < lrows_.num_columns(); ++i) {
    out->AddColumn(Gather(lrows_.col(i), li_.data() + pos_, n));
  }
  for (int i = 0; i < rrows_.num_columns(); ++i) {
    out->AddColumn(Gather(rrows_.col(i), ri_.data() + pos_, n));
  }
  pos_ = end;
  return true;
}

// ------------------------------------------------- parallel hash join --

ParallelHashJoin::ParallelHashJoin(BatchOperatorPtr left,
                                   BatchOperatorPtr right,
                                   std::vector<int> left_keys,
                                   std::vector<int> right_keys,
                                   MorselDispatcher* dispatcher,
                                   int radix_bits, int batch_rows)
    : BatchOperator("parallel_hash_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      dispatcher_(dispatcher),
      radix_bits_(radix_bits),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status ParallelHashJoin::Open() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  pos_ = 0;
  loaded_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void ParallelHashJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  left_->Close();
  right_->Close();
}

Result<bool> ParallelHashJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    FOCUS_RETURN_IF_ERROR(DrainInto(left_.get(), &lrows_));
    FOCUS_RETURN_IF_ERROR(DrainInto(right_.get(), &rrows_));
    std::vector<SortKey> lkeys, rkeys;
    for (int c : left_keys_) lkeys.push_back(SortKey{c, false});
    for (int c : right_keys_) rkeys.push_back(SortKey{c, false});
    auto plan =
        RadixPartitioner::Plan(radix_bits_, lrows_, lkeys, &rrows_, &rkeys);
    if (!plan.has_value()) {
      return Status::InvalidArgument(
          "parallel hash join requires packable integer keys "
          "(use the merge join for NULLs or wide keys)");
    }
    RadixPartitions lparts =
        plan->Scatter(lrows_, lkeys, dispatcher_, &stats_);
    RadixPartitions rparts =
        plan->Scatter(rrows_, rkeys, dispatcher_, &stats_);
    int num_p = lparts.num_partitions;
    std::vector<std::vector<int64_t>> lis(num_p), ris(num_p);
    stats_.morsels += dispatcher_->ParallelFor(num_p, 1, [&](size_t b,
                                                             size_t e) {
      for (size_t p = b; p < e; ++p) {
        size_t rb = rparts.offsets[p], re = rparts.offsets[p + 1];
        size_t lb = lparts.offsets[p], le = lparts.offsets[p + 1];
        if (rb == re || lb == le) continue;
        // Build on the right slice in arrival order, probe the left slice
        // in arrival order — deterministic regardless of thread count.
        std::unordered_map<uint64_t, std::vector<int64_t>> build;
        for (size_t i = rb; i < re; ++i) {
          int64_t row = rparts.idx[i];
          build[rparts.packed[row]].push_back(row);
        }
        for (size_t i = lb; i < le; ++i) {
          int64_t row = lparts.idx[i];
          auto it = build.find(lparts.packed[row]);
          if (it == build.end()) continue;
          for (int64_t rrow : it->second) {
            lis[p].push_back(row);
            ris[p].push_back(rrow);
          }
        }
      }
    });
    for (int p = 0; p < num_p; ++p) {
      li_.insert(li_.end(), lis[p].begin(), lis[p].end());
      ri_.insert(ri_.end(), ris[p].begin(), ris[p].end());
    }
  }
  if (pos_ >= li_.size()) return false;
  size_t end = std::min(li_.size(), pos_ + static_cast<size_t>(batch_rows_));
  size_t n = end - pos_;
  for (int i = 0; i < lrows_.num_columns(); ++i) {
    out->AddColumn(Gather(lrows_.col(i), li_.data() + pos_, n));
  }
  for (int i = 0; i < rrows_.num_columns(); ++i) {
    out->AddColumn(Gather(rrows_.col(i), ri_.data() + pos_, n));
  }
  pos_ = end;
  return true;
}

// -------------------------------------------- parallel sort aggregate --

ParallelSortAggregate::ParallelSortAggregate(
    BatchOperatorPtr child, std::vector<SortKey> sort_keys,
    std::vector<int> group_cols, std::vector<AggSpec> aggs,
    MorselDispatcher* dispatcher, int radix_bits, int batch_rows)
    : BatchOperator("parallel_sort_aggregate"),
      child_(std::move(child)),
      sort_keys_(std::move(sort_keys)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      dispatcher_(dispatcher),
      radix_bits_(radix_bits),
      batch_rows_(batch_rows),
      schema_(SortedAggSchema(child_->schema(), group_cols_, aggs_)) {}

Status ParallelSortAggregate::Open() {
  agg_ = ColumnSet();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void ParallelSortAggregate::Close() {
  agg_ = ColumnSet();
  child_->Close();
}

Result<bool> ParallelSortAggregate::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    ColumnSet rows;
    FOCUS_RETURN_IF_ERROR(DrainInto(child_.get(), &rows));
    bool use_packed = GroupsMatchSortKeys(group_cols_, sort_keys_);
    auto plan = RadixPartitioner::Plan(radix_bits_, rows, sort_keys_);
    agg_ = ColumnSet(schema_);
    if (!plan.has_value()) {
      std::vector<int64_t> order;
      std::vector<uint64_t> packed;
      SortPermutation(rows, sort_keys_, &order, &packed);
      AggregateSortedRuns(rows, order, 0, order.size(),
                          use_packed && !packed.empty() ? packed.data()
                                                        : nullptr,
                          group_cols_, aggs_, &agg_);
    } else {
      RadixPartitions parts =
          plan->Scatter(rows, sort_keys_, dispatcher_, &stats_);
      int num_p = parts.num_partitions;
      // Independently constructed per partition (a ColumnSet copy would
      // share its reference-counted columns across all slots).
      std::vector<ColumnSet> outs;
      outs.reserve(num_p);
      for (int p = 0; p < num_p; ++p) outs.emplace_back(schema_);
      stats_.morsels += dispatcher_->ParallelFor(num_p, 1, [&](size_t b,
                                                               size_t e) {
        for (size_t p = b; p < e; ++p) {
          if (parts.offsets[p] == parts.offsets[p + 1]) continue;
          SortPartition(&parts, p);
          // Groups never span partitions: equal keys share a packed word,
          // hence a partition, so per-partition runs are global runs.
          AggregateSortedRuns(rows, parts.idx, parts.offsets[p],
                              parts.offsets[p + 1],
                              use_packed ? parts.packed.data() : nullptr,
                              group_cols_, aggs_, &outs[p]);
        }
      });
      for (const ColumnSet& part : outs) AppendSet(part, &agg_);
    }
  }
  return EmitChunk(agg_, &pos_, batch_rows_, out);
}

// ----------------------------------------------------------- exchange --

ExchangeGather::ExchangeGather(std::vector<BatchOperatorPtr> children,
                               MorselDispatcher* dispatcher, int batch_rows)
    : BatchOperator("exchange_gather"),
      children_(std::move(children)),
      dispatcher_(dispatcher),
      batch_rows_(batch_rows) {
  FOCUS_CHECK(!children_.empty(), "ExchangeGather needs >= 1 child");
  schema_ = children_[0]->schema();
}

Status ExchangeGather::Open() {
  rows_ = ColumnSet();
  pos_ = 0;
  loaded_ = false;
  for (auto& child : children_) FOCUS_RETURN_IF_ERROR(child->Open());
  return Status::OK();
}

void ExchangeGather::Close() {
  rows_ = ColumnSet();
  for (auto& child : children_) child->Close();
}

Result<bool> ExchangeGather::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    size_t n = children_.size();
    std::vector<ColumnSet> sets(n);
    std::vector<Status> errors(n);
    stats_.morsels += dispatcher_->ParallelFor(n, 1, [&](size_t b,
                                                         size_t e) {
      for (size_t i = b; i < e; ++i) {
        errors[i] = DrainInto(children_[i].get(), &sets[i]);
      }
    });
    FOCUS_RETURN_IF_ERROR(FirstError(errors));
    rows_ = ColumnSet(schema_);
    for (const ColumnSet& set : sets) AppendSet(set, &rows_);
  }
  return EmitChunk(rows_, &pos_, batch_rows_, out);
}

ExchangeMerge::ExchangeMerge(std::vector<BatchOperatorPtr> children,
                             std::vector<SortKey> keys,
                             MorselDispatcher* dispatcher, int batch_rows)
    : BatchOperator("exchange_merge"),
      children_(std::move(children)),
      keys_(std::move(keys)),
      dispatcher_(dispatcher),
      batch_rows_(batch_rows) {
  FOCUS_CHECK(!children_.empty(), "ExchangeMerge needs >= 1 child");
  schema_ = children_[0]->schema();
}

Status ExchangeMerge::Open() {
  rows_ = ColumnSet();
  pos_ = 0;
  loaded_ = false;
  for (auto& child : children_) FOCUS_RETURN_IF_ERROR(child->Open());
  return Status::OK();
}

void ExchangeMerge::Close() {
  rows_ = ColumnSet();
  for (auto& child : children_) child->Close();
}

Result<bool> ExchangeMerge::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    size_t n = children_.size();
    std::vector<ColumnSet> sets(n);
    std::vector<Status> errors(n);
    stats_.morsels += dispatcher_->ParallelFor(n, 1, [&](size_t b,
                                                         size_t e) {
      for (size_t i = b; i < e; ++i) {
        errors[i] = DrainInto(children_[i].get(), &sets[i]);
      }
    });
    FOCUS_RETURN_IF_ERROR(FirstError(errors));
    // K-way merge; ties go to the lower child index, so the result equals
    // a stable sort of the child-order concatenation.
    auto less_than = [&](size_t ca, size_t ra, size_t cb, size_t rb) {
      for (const SortKey& k : keys_) {
        int c = CompareColumnRows(sets[ca].col(k.col), ra, sets[cb].col(k.col),
                                  rb);
        if (k.descending) c = -c;
        if (c != 0) return c < 0;
      }
      return ca < cb;
    };
    rows_ = ColumnSet(schema_);
    std::vector<size_t> at(n, 0);
    for (;;) {
      int best = -1;
      for (size_t c = 0; c < n; ++c) {
        if (at[c] >= sets[c].num_rows()) continue;
        if (best < 0 ||
            less_than(c, at[c], static_cast<size_t>(best), at[best])) {
          best = static_cast<int>(c);
        }
      }
      if (best < 0) break;
      for (int i = 0; i < rows_.num_columns(); ++i) {
        rows_.mutable_col(i)->AppendFrom(sets[best].col(i), at[best]);
      }
      ++at[best];
    }
  }
  return EmitChunk(rows_, &pos_, batch_rows_, out);
}

}  // namespace focus::sql
