#include "sql/exec/batch_ops.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>

#include "util/clock.h"
#include "util/logging.h"

namespace focus::sql {

namespace {

std::atomic<obs::MetricsRegistry*> g_batch_registry{nullptr};

// Result type of a sorted-run aggregate; mirrors HashAggregate's
// AggOutputType so the two engines emit identical schemas.
TypeId SortedAggOutputType(const AggSpec& spec, const Schema& in) {
  switch (spec.kind) {
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kSum:
      return in.column(spec.col).type == TypeId::kDouble ? TypeId::kDouble
                                                         : TypeId::kInt64;
    default:
      FOCUS_CHECK(false, "BatchSortedAggregate supports SUM/COUNT only");
  }
  return TypeId::kDouble;
}

// Sort fast path for up to two integer key columns with no NULLs. The
// keys are range-compressed into one order-preserving uint64 word per row
// (descending fields store max - v), so one machine-word compare decides
// the full lexicographic order; when the word is narrow, a stable LSD
// radix sort replaces the comparison sort entirely. The resulting
// permutation is exactly the stable sort under CompareRowsOnKeys. Keys
// whose combined range exceeds 64 bits fall back to sorting flat
// (key, key, index) structs with the row index as the tiebreak.
int64_t IntAt(const ColumnData& col, size_t row) {
  return col.type == TypeId::kInt32 ? static_cast<int64_t>(col.i32[row])
                                    : col.i64[row];
}

uint64_t BiasedIntKey(const ColumnData& col, size_t row, bool descending) {
  uint64_t v = static_cast<uint64_t>(IntAt(col, row));
  v ^= uint64_t{1} << 63;
  return descending ? ~v : v;
}

// Stable LSD radix sort of `packed` (in row order) over the low
// `used_bits` bits; fills `order` with the sorted permutation.
void RadixSortPacked(const std::vector<uint64_t>& packed, int used_bits,
                     std::vector<int64_t>* order) {
  size_t n = packed.size();
  std::vector<int64_t> idx(n), idx2(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (int shift = 0; shift < used_bits; shift += 8) {
    size_t count[257] = {0};
    for (size_t i = 0; i < n; ++i) {
      ++count[((packed[idx[i]] >> shift) & 0xFF) + 1];
    }
    for (int d = 0; d < 256; ++d) count[d + 1] += count[d];
    for (size_t i = 0; i < n; ++i) {
      idx2[count[(packed[idx[i]] >> shift) & 0xFF]++] = idx[i];
    }
    idx.swap(idx2);
  }
  order->swap(idx);
}

bool TrySortIntKeys(const ColumnSet& rows, const std::vector<SortKey>& keys,
                    std::vector<int64_t>* order,
                    std::vector<uint64_t>* packed_out = nullptr) {
  if (packed_out != nullptr) packed_out->clear();
  if (keys.empty() || keys.size() > 2) return false;
  for (const SortKey& key : keys) {
    const ColumnData& col = rows.col(key.col);
    if (col.type != TypeId::kInt32 && col.type != TypeId::kInt64) {
      return false;
    }
    if (!col.nulls.empty() &&
        std::any_of(col.nulls.begin(), col.nulls.end(),
                    [](uint8_t n) { return n != 0; })) {
      return false;
    }
  }
  size_t n = rows.num_rows();
  order->resize(n);
  if (n == 0) return true;

  // Per-key value ranges decide whether all keys fit one word.
  struct KeyRange {
    const ColumnData* col;
    bool desc;
    int64_t min, max;
    int bits;
  };
  std::vector<KeyRange> ranges;
  int total_bits = 0;
  for (const SortKey& key : keys) {
    const ColumnData& col = rows.col(key.col);
    int64_t lo = IntAt(col, 0), hi = lo;
    for (size_t i = 1; i < n; ++i) {
      int64_t v = IntAt(col, i);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    int bits = range == 0 ? 0 : std::bit_width(range);
    ranges.push_back(KeyRange{&col, key.descending, lo, hi, bits});
    total_bits += bits;
  }

  if (total_bits <= 64) {
    std::vector<uint64_t> packed(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t word = 0;
      for (const KeyRange& r : ranges) {
        uint64_t field = r.desc
                             ? static_cast<uint64_t>(r.max) -
                                   static_cast<uint64_t>(IntAt(*r.col, i))
                             : static_cast<uint64_t>(IntAt(*r.col, i)) -
                                   static_cast<uint64_t>(r.min);
        // A 64-bit key is the only key (total_bits <= 64), so word is
        // still 0; shifting by 64 would be undefined.
        word = r.bits == 64 ? field : (word << r.bits) | field;
      }
      packed[i] = word;
    }
    if (n >= 512 && total_bits <= 32) {
      RadixSortPacked(packed, total_bits, order);
    } else {
      struct K1 {
        uint64_t k;
        int64_t idx;
      };
      std::vector<K1> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = K1{packed[i], static_cast<int64_t>(i)};
      }
      std::sort(v.begin(), v.end(), [](const K1& a, const K1& b) {
        return a.k != b.k ? a.k < b.k : a.idx < b.idx;
      });
      for (size_t i = 0; i < n; ++i) (*order)[i] = v[i].idx;
    }
    // The packing is injective, so equal words <=> equal key values;
    // callers can reuse it for group-boundary checks.
    if (packed_out != nullptr) packed_out->swap(packed);
    return true;
  }

  if (keys.size() == 1) {
    const ColumnData& col = rows.col(keys[0].col);
    bool desc = keys[0].descending;
    struct K1 {
      uint64_t k;
      int64_t idx;
    };
    std::vector<K1> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = K1{BiasedIntKey(col, i, desc), static_cast<int64_t>(i)};
    }
    std::sort(v.begin(), v.end(), [](const K1& a, const K1& b) {
      return a.k != b.k ? a.k < b.k : a.idx < b.idx;
    });
    for (size_t i = 0; i < n; ++i) (*order)[i] = v[i].idx;
  } else {
    const ColumnData& c0 = rows.col(keys[0].col);
    const ColumnData& c1 = rows.col(keys[1].col);
    bool d0 = keys[0].descending, d1 = keys[1].descending;
    struct K2 {
      uint64_t k0, k1;
      int64_t idx;
    };
    std::vector<K2> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = K2{BiasedIntKey(c0, i, d0), BiasedIntKey(c1, i, d1),
                static_cast<int64_t>(i)};
    }
    std::sort(v.begin(), v.end(), [](const K2& a, const K2& b) {
      if (a.k0 != b.k0) return a.k0 < b.k0;
      if (a.k1 != b.k1) return a.k1 < b.k1;
      return a.idx < b.idx;
    });
    for (size_t i = 0; i < n; ++i) (*order)[i] = v[i].idx;
  }
  return true;
}

double NumericAt(const ColumnData& col, size_t row) {
  switch (col.type) {
    case TypeId::kInt32:
      return static_cast<double>(col.i32[row]);
    case TypeId::kInt64:
      return static_cast<double>(col.i64[row]);
    case TypeId::kDouble:
      return col.f64[row];
    case TypeId::kString:
      break;
  }
  FOCUS_CHECK(false, "aggregate over non-numeric column");
  return 0;
}

}  // namespace

Schema SortedAggSchema(const Schema& in, const std::vector<int>& group_cols,
                       const std::vector<AggSpec>& aggs) {
  std::vector<Column> cols;
  for (int g : group_cols) cols.push_back(in.column(g));
  for (const AggSpec& a : aggs) {
    cols.push_back({a.out_name, SortedAggOutputType(a, in)});
  }
  return Schema(std::move(cols));
}

void SetBatchMetricsRegistry(obs::MetricsRegistry* registry) {
  g_batch_registry.store(registry, std::memory_order_relaxed);
}

obs::MetricsRegistry* BatchMetricsRegistry() {
  return obs::MetricsRegistry::OrGlobal(
      g_batch_registry.load(std::memory_order_relaxed));
}

void SortPermutation(const ColumnSet& rows, const std::vector<SortKey>& keys,
                     std::vector<int64_t>* order,
                     std::vector<uint64_t>* packed) {
  if (TrySortIntKeys(rows, keys, order, packed)) return;
  order->resize(rows.num_rows());
  std::iota(order->begin(), order->end(), 0);
  std::vector<ColumnPtr> cols;
  for (int i = 0; i < rows.num_columns(); ++i) {
    cols.push_back(rows.col_ptr(i));
  }
  std::stable_sort(order->begin(), order->end(),
                   [&cols, &keys](int64_t a, int64_t b) {
                     return CompareRowsOnKeys(cols, a, b, keys) < 0;
                   });
}

void MergeJoinIndices(const ColumnSet& lrows, const ColumnSet& rrows,
                      const std::vector<int>& left_keys,
                      const std::vector<int>& right_keys, bool left_outer,
                      const int64_t* lidx, size_t nl, const int64_t* ridx,
                      size_t nr, std::vector<int64_t>* li,
                      std::vector<int64_t>* ri) {
  auto lrow = [lidx](size_t p) {
    return lidx ? static_cast<size_t>(lidx[p]) : p;
  };
  auto rrow = [ridx](size_t p) {
    return ridx ? static_cast<size_t>(ridx[p]) : p;
  };
  auto key_cmp = [&](size_t l, size_t r) {
    for (size_t k = 0; k < left_keys.size(); ++k) {
      int c = CompareColumnRows(lrows.col(left_keys[k]), lrow(l),
                                rrows.col(right_keys[k]), rrow(r));
      if (c != 0) return c;
    }
    return 0;
  };
  auto right_eq = [&](size_t a, size_t b) {
    for (int key : right_keys) {
      if (CompareColumnRows(rrows.col(key), rrow(a), rrows.col(key),
                            rrow(b)) != 0) {
        return false;
      }
    }
    return true;
  };
  size_t l = 0, r = 0;
  while (l < nl) {
    if (r >= nr) {
      if (left_outer) {
        li->push_back(static_cast<int64_t>(lrow(l)));
        ri->push_back(-1);
      }
      ++l;
      continue;
    }
    int c = key_cmp(l, r);
    if (c < 0) {
      if (left_outer) {
        li->push_back(static_cast<int64_t>(lrow(l)));
        ri->push_back(-1);
      }
      ++l;
    } else if (c > 0) {
      ++r;
    } else {
      size_t rend = r + 1;
      while (rend < nr && right_eq(r, rend)) ++rend;
      // Left-major emission over the right group — the scalar MergeJoin's
      // output order.
      while (l < nl && key_cmp(l, r) == 0) {
        for (size_t rr = r; rr < rend; ++rr) {
          li->push_back(static_cast<int64_t>(lrow(l)));
          ri->push_back(static_cast<int64_t>(rrow(rr)));
        }
        ++l;
      }
      r = rend;
    }
  }
}

bool GroupsMatchSortKeys(const std::vector<int>& group_cols,
                         const std::vector<SortKey>& sort_keys) {
  return group_cols.size() == sort_keys.size() &&
         std::all_of(group_cols.begin(), group_cols.end(), [&](int g) {
           return std::any_of(sort_keys.begin(), sort_keys.end(),
                              [g](const SortKey& k) { return k.col == g; });
         });
}

void AggregateSortedRuns(const ColumnSet& rows,
                         const std::vector<int64_t>& order, size_t begin,
                         size_t end, const uint64_t* packed,
                         const std::vector<int>& group_cols,
                         const std::vector<AggSpec>& aggs, ColumnSet* out) {
  auto same_group = [&](size_t a, size_t b) {
    if (packed != nullptr) return packed[a] == packed[b];
    for (int g : group_cols) {
      if (CompareColumnRows(rows.col(g), a, rows.col(g), b) != 0) {
        return false;
      }
    }
    return true;
  };
  std::vector<double> sums(aggs.size());
  std::vector<int64_t> counts(aggs.size());
  size_t pos = begin;
  while (pos < end) {
    size_t rep = static_cast<size_t>(order[pos]);
    sums.assign(aggs.size(), 0.0);
    counts.assign(aggs.size(), 0);
    do {
      size_t row = static_cast<size_t>(order[pos]);
      for (size_t i = 0; i < aggs.size(); ++i) {
        ++counts[i];
        if (aggs[i].kind == AggKind::kSum) {
          sums[i] += NumericAt(rows.col(aggs[i].col), row);
        }
      }
      ++pos;
    } while (pos < end &&
             same_group(static_cast<size_t>(order[pos]), rep));
    for (size_t g = 0; g < group_cols.size(); ++g) {
      out->mutable_col(static_cast<int>(g))
          ->AppendFrom(rows.col(group_cols[g]), rep);
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      ColumnData* col =
          out->mutable_col(static_cast<int>(group_cols.size() + i));
      switch (aggs[i].kind) {
        case AggKind::kCount:
          col->i64.push_back(counts[i]);
          break;
        case AggKind::kSum:
          // Accumulate-in-double then cast, exactly like HashAggregate.
          if (rows.col(aggs[i].col).type == TypeId::kDouble) {
            col->f64.push_back(sums[i]);
          } else {
            col->i64.push_back(static_cast<int64_t>(sums[i]));
          }
          break;
        default:
          FOCUS_CHECK(false, "unsupported sorted aggregate");
      }
    }
  }
}

Result<bool> BatchOperator::NextBatch(Batch* out) {
  if (op_name_ == nullptr) return DoNextBatch(out);
  if (batches_total_ == nullptr) {
    obs::MetricsRegistry* reg = obs::MetricsRegistry::OrGlobal(
        g_batch_registry.load(std::memory_order_relaxed));
    batches_total_ = reg->GetCounter("focus_sql_batches_total");
    rows_per_batch_ = reg->GetHistogram("focus_sql_rows_per_batch");
    self_micros_ = reg->GetCounter("focus_sql_batch_op_micros_total",
                                   {{"op", op_name_}});
  }
  // Self time = my inclusive time minus my children's inclusive time,
  // tracked with a per-thread stack (children's NextBatch calls nest
  // inside this one).
  thread_local std::vector<uint64_t> child_micros_stack;
  child_micros_stack.push_back(0);
  Stopwatch timer;
  Result<bool> more = DoNextBatch(out);
  uint64_t total = static_cast<uint64_t>(timer.ElapsedMicros());
  uint64_t children = child_micros_stack.back();
  child_micros_stack.pop_back();
  if (!child_micros_stack.empty()) child_micros_stack.back() += total;
  self_micros_->Add(total > children ? total - children : 0);
  if (more.ok() && more.value()) {
    batches_total_->Inc();
    rows_per_batch_->Observe(out->num_rows());
  }
  return more;
}

// ---------------------------------------------------------------- scan --

BatchTableScan::BatchTableScan(const Table* table, std::vector<int> cols,
                               int batch_rows)
    : BatchOperator("table_scan"),
      table_(table),
      decoder_(table->schema(), std::move(cols)),
      batch_rows_(batch_rows) {}

Status BatchTableScan::Open() {
  it_.emplace(table_->Scan());
  return Status::OK();
}

Result<bool> BatchTableScan::DoNextBatch(Batch* out) {
  out->Reset();
  const Schema& schema = decoder_.output_schema();
  std::vector<ColumnPtr> cols;
  std::vector<ColumnData*> targets;
  cols.reserve(schema.num_columns());
  targets.reserve(schema.num_columns());
  for (const Column& c : schema.columns()) {
    cols.push_back(NewColumn(c.type));
    cols.back()->Reserve(batch_rows_);
    targets.push_back(cols.back().get());
  }
  storage::Rid rid;
  std::string_view record;
  Status decoded;
  int n = 0;
  while (n < batch_rows_ && it_->NextRecord(&rid, &record)) {
    decoded = decoder_.Append(record, targets.data());
    if (!decoded.ok()) break;
    ++n;
  }
  it_->Unpin();
  FOCUS_RETURN_IF_ERROR(decoded);
  FOCUS_RETURN_IF_ERROR(it_->status());
  if (n == 0) return false;
  for (ColumnPtr& c : cols) out->AddColumn(std::move(c));
  return true;
}

// -------------------------------------------------------------- source --

Result<bool> BatchSource::DoNextBatch(Batch* out) {
  out->Reset();
  size_t n = set_->num_rows();
  if (pos_ >= n) return false;
  if (pos_ == 0 && n <= static_cast<size_t>(batch_rows_)) {
    // The whole set fits one batch: forward the columns zero-copy.
    for (int i = 0; i < set_->num_columns(); ++i) {
      out->AddColumn(set_->col_ptr(i));
    }
    pos_ = n;
    return true;
  }
  size_t end = std::min(n, pos_ + static_cast<size_t>(batch_rows_));
  for (int i = 0; i < set_->num_columns(); ++i) {
    ColumnPtr col = NewColumn(set_->col(i).type);
    col->Reserve(end - pos_);
    col->AppendRange(set_->col(i), pos_, end);
    out->AddColumn(std::move(col));
  }
  pos_ = end;
  return true;
}

// ------------------------------------------------------------ adapters --

Result<bool> Vectorize::DoNextBatch(Batch* out) {
  out->Reset();
  const Schema& s = child_->schema();
  int n = 0;
  while (n < batch_rows_) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->Next(&row_));
    if (!more) break;
    out->AppendTuple(s, row_);
    ++n;
  }
  return n > 0;
}

Status Devectorize::Open() {
  pos_ = 0;
  done_ = false;
  batch_.Reset();
  return child_->Open();
}

Result<bool> Devectorize::Next(Tuple* out) {
  while (pos_ >= batch_.num_rows()) {
    if (done_) return false;
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch_));
    if (!more) {
      done_ = true;
      return false;
    }
    pos_ = 0;
  }
  batch_.ToTuple(pos_++, out);
  return true;
}

// -------------------------------------------------------------- filter --

Result<bool> BatchFilter::DoNextBatch(Batch* out) {
  out->Reset();
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    if (!more) return false;
    sel_.clear();
    pred_(in_, &sel_);
    if (sel_.empty()) continue;  // nothing qualified; pull the next batch
    if (sel_.size() == in_.num_rows()) {
      // Everything qualified: forward the columns zero-copy.
      for (int i = 0; i < in_.num_columns(); ++i) {
        out->AddColumn(in_.col_ptr(i));
      }
      return true;
    }
    for (int i = 0; i < in_.num_columns(); ++i) {
      out->AddColumn(Gather(in_.col(i), sel_));
    }
    return true;
  }
}

// ------------------------------------------------------------- project --

BatchExpr BatchExpr::Passthrough(std::string name, TypeId type, int col) {
  return BatchExpr{std::move(name), type,
                   [col](const Batch& in) { return in.col_ptr(col); }};
}

BatchProject::BatchProject(BatchOperatorPtr child,
                           std::vector<BatchExpr> exprs)
    : BatchOperator("project"),
      child_(std::move(child)),
      exprs_(std::move(exprs)) {
  std::vector<Column> cols;
  cols.reserve(exprs_.size());
  for (const BatchExpr& e : exprs_) cols.push_back({e.name, e.type});
  schema_ = Schema(std::move(cols));
}

Result<bool> BatchProject::DoNextBatch(Batch* out) {
  out->Reset();
  FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
  if (!more) return false;
  for (const BatchExpr& e : exprs_) out->AddColumn(e.eval(in_));
  return true;
}

// ---------------------------------------------------------------- sort --

Status BatchSort::Open() {
  rows_ = ColumnSet(child_->schema());
  order_.clear();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void BatchSort::Close() {
  rows_ = ColumnSet();
  order_.clear();
  child_->Close();
}

Result<bool> BatchSort::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    Batch b;
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&b));
      if (!more) break;
      rows_.AppendBatch(b);
    }
    SortPermutation(rows_, keys_, &order_, &packed_);
  }
  if (pos_ >= order_.size()) return false;
  size_t end = std::min(order_.size(), pos_ + static_cast<size_t>(batch_rows_));
  for (int i = 0; i < rows_.num_columns(); ++i) {
    out->AddColumn(Gather(rows_.col(i), order_.data() + pos_, end - pos_));
  }
  pos_ = end;
  return true;
}

// ---------------------------------------------------------- merge join --

BatchMergeJoin::BatchMergeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                               std::vector<int> left_keys,
                               std::vector<int> right_keys, bool left_outer,
                               int batch_rows)
    : BatchOperator("merge_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status BatchMergeJoin::Open() {
  lrows_ = ColumnSet(left_->schema());
  rrows_ = ColumnSet(right_->schema());
  li_.clear();
  ri_.clear();
  pos_ = 0;
  merged_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void BatchMergeJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  left_->Close();
  right_->Close();
}

Status BatchMergeJoin::Merge() {
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&b));
    if (!more) break;
    lrows_.AppendBatch(b);
  }
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&b));
    if (!more) break;
    rrows_.AppendBatch(b);
  }
  MergeJoinIndices(lrows_, rrows_, left_keys_, right_keys_, left_outer_,
                   nullptr, lrows_.num_rows(), nullptr, rrows_.num_rows(),
                   &li_, &ri_);
  return Status::OK();
}

Result<bool> BatchMergeJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!merged_) {
    merged_ = true;
    FOCUS_RETURN_IF_ERROR(Merge());
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

// ---------------------------------------------------------- probe join --

DenseRunTable BuildDenseRunTable(const ColumnData& rk, int64_t domain) {
  DenseRunTable t;
  t.lo.assign(static_cast<size_t>(domain), 0);
  t.hi.assign(static_cast<size_t>(domain), 0);
  const size_t nr = rk.size();
  size_t j = 0;
  while (j < nr) {
    int32_t code = rk.i32[j];
    size_t end = j + 1;
    while (end < nr && rk.i32[end] == code) ++end;
    FOCUS_DCHECK(code >= 0 && code < domain);
    t.lo[code] = static_cast<int64_t>(j);
    t.hi[code] = static_cast<int64_t>(end);
    j = end;
  }
  return t;
}

void ProbeJoinIndices(const ColumnSet& lrows, const ColumnSet& rrows,
                      int left_key, int right_key, bool left_outer,
                      const DenseRunTable* dense, size_t lbegin, size_t lend,
                      std::vector<int64_t>* li, std::vector<int64_t>* ri) {
  const ColumnData& lk = lrows.col(left_key);
  const ColumnData& rk = rrows.col(right_key);
  const size_t nr = rrows.num_rows();

  size_t i = lbegin;
  size_t rpos = 0;  // both sides ascend, so searches never look back
  while (i < lend) {
    size_t run_end = i + 1;
    while (run_end < lend && CompareColumnRows(lk, run_end, lk, i) == 0) {
      ++run_end;
    }
    size_t rlo = 0, rhi = 0;
    if (dense != nullptr) {
      int32_t code = lk.IsNull(i) ? -1 : lk.i32[i];
      if (code >= 0 && code < static_cast<int64_t>(dense->lo.size())) {
        rlo = static_cast<size_t>(dense->lo[code]);
        rhi = static_cast<size_t>(dense->hi[code]);
      }
    } else {
      size_t lo = rpos, hi = nr;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (CompareColumnRows(rk, mid, lk, i) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      rlo = lo;
      hi = nr;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (CompareColumnRows(rk, mid, lk, i) <= 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      rhi = lo;
      rpos = rhi;
    }
    // Left-major within the key group — MergeJoinIndices' emission order.
    for (size_t l = i; l < run_end; ++l) {
      if (rlo == rhi) {
        if (left_outer) {
          li->push_back(static_cast<int64_t>(l));
          ri->push_back(-1);
        }
        continue;
      }
      for (size_t r = rlo; r < rhi; ++r) {
        li->push_back(static_cast<int64_t>(l));
        ri->push_back(static_cast<int64_t>(r));
      }
    }
    i = run_end;
  }
}

BatchProbeJoin::BatchProbeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                               int left_key, int right_key, bool left_outer,
                               int64_t dense_domain, int batch_rows)
    : BatchOperator("probe_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key),
      left_outer_(left_outer),
      dense_domain_(dense_domain),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status BatchProbeJoin::Open() {
  lrows_ = ColumnSet(left_->schema());
  rrows_ = ColumnSet(right_->schema());
  li_.clear();
  ri_.clear();
  pos_ = 0;
  probed_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void BatchProbeJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  left_->Close();
  right_->Close();
}

Status BatchProbeJoin::Probe() {
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&b));
    if (!more) break;
    lrows_.AppendBatch(b);
  }
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&b));
    if (!more) break;
    rrows_.AppendBatch(b);
  }
  DenseRunTable table;
  if (dense_domain_ > 0) {
    table = BuildDenseRunTable(rrows_.col(right_key_), dense_domain_);
  }
  ProbeJoinIndices(lrows_, rrows_, left_key_, right_key_, left_outer_,
                   dense_domain_ > 0 ? &table : nullptr, 0,
                   lrows_.num_rows(), &li_, &ri_);
  return Status::OK();
}

Result<bool> BatchProbeJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!probed_) {
    probed_ = true;
    FOCUS_RETURN_IF_ERROR(Probe());
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

// ---------------------------------------------- dictionary predicates --

BatchPredicate CodeRangePredicate(int col, int32_t lo_code,
                                  int32_t hi_code) {
  return [col, lo_code, hi_code](const Batch& in,
                                 std::vector<int64_t>* sel) {
    const ColumnData& c = in.col(col);
    for (size_t i = 0; i < c.i32.size(); ++i) {
      int32_t v = c.i32[i];
      if (v >= lo_code && v < hi_code && !c.IsNull(i)) {
        sel->push_back(static_cast<int64_t>(i));
      }
    }
  };
}

BatchPredicate DomainMembershipPredicate(int col, ColumnPtr domain) {
  return [col, domain = std::move(domain)](const Batch& in,
                                           std::vector<int64_t>* sel) {
    const ColumnData& c = in.col(col);
    const ColumnData& d = *domain;
    const size_t n = c.size();
    if (d.type == TypeId::kInt64 && c.type == TypeId::kInt64 &&
        !c.has_nulls()) {
      for (size_t i = 0; i < n; ++i) {
        if (std::binary_search(d.i64.begin(), d.i64.end(), c.i64[i])) {
          sel->push_back(static_cast<int64_t>(i));
        }
      }
      return;
    }
    const size_t nd = d.size();
    for (size_t i = 0; i < n; ++i) {
      if (c.IsNull(i)) continue;
      size_t lo = 0, hi = nd;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (CompareColumnRows(d, mid, c, i) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < nd && CompareColumnRows(d, lo, c, i) == 0) {
        sel->push_back(static_cast<int64_t>(i));
      }
    }
  };
}

// ---------------------------------------------------------- cross join --

BatchCrossJoin::BatchCrossJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                               int batch_rows)
    : BatchOperator("cross_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status BatchCrossJoin::Open() {
  lrows_ = ColumnSet(left_->schema());
  rrows_ = ColumnSet(right_->schema());
  pos_ = 0;
  loaded_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void BatchCrossJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  left_->Close();
  right_->Close();
}

Result<bool> BatchCrossJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    Batch b;
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&b));
      if (!more) break;
      lrows_.AppendBatch(b);
    }
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&b));
      if (!more) break;
      rrows_.AppendBatch(b);
    }
  }
  size_t nr = rrows_.num_rows();
  size_t total = lrows_.num_rows() * nr;
  if (pos_ >= total) return false;
  size_t end = std::min(total, pos_ + static_cast<size_t>(batch_rows_));
  size_t n = end - pos_;
  std::vector<int64_t> li(n), ri(n);
  for (size_t k = 0; k < n; ++k) {
    li[k] = static_cast<int64_t>((pos_ + k) / nr);
    ri[k] = static_cast<int64_t>((pos_ + k) % nr);
  }
  for (int i = 0; i < lrows_.num_columns(); ++i) {
    out->AddColumn(Gather(lrows_.col(i), li));
  }
  for (int i = 0; i < rrows_.num_columns(); ++i) {
    out->AddColumn(Gather(rrows_.col(i), ri));
  }
  pos_ = end;
  return true;
}

// ---------------------------------------------------- sorted aggregate --

BatchSortedAggregate::BatchSortedAggregate(BatchOperatorPtr child,
                                           std::vector<int> group_cols,
                                           std::vector<AggSpec> aggs,
                                           int batch_rows)
    : BatchOperator("sorted_aggregate"),
      child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      batch_rows_(batch_rows) {
  schema_ = SortedAggSchema(child_->schema(), group_cols_, aggs_);
}

Status BatchSortedAggregate::Open() {
  in_pos_ = 0;
  in_valid_ = false;
  input_done_ = false;
  group_open_ = false;
  return child_->Open();
}

void BatchSortedAggregate::EmitGroup(Batch* out) {
  for (size_t g = 0; g < group_cols_.size(); ++g) {
    out->mutable_col(static_cast<int>(g))->AppendValue(group_key_[g]);
  }
  const Schema& in = child_->schema();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    ColumnData* col = out->mutable_col(static_cast<int>(group_cols_.size() + i));
    switch (aggs_[i].kind) {
      case AggKind::kCount:
        col->i64.push_back(counts_[i]);
        break;
      case AggKind::kSum:
        // Accumulate-in-double then cast, exactly like HashAggregate.
        if (in.column(aggs_[i].col).type == TypeId::kDouble) {
          col->f64.push_back(sums_[i]);
        } else {
          col->i64.push_back(static_cast<int64_t>(sums_[i]));
        }
        break;
      default:
        FOCUS_CHECK(false, "unsupported sorted aggregate");
    }
  }
  group_open_ = false;
}

Result<bool> BatchSortedAggregate::DoNextBatch(Batch* out) {
  out->Reset();
  for (const Column& c : schema_.columns()) {
    ColumnPtr col = NewColumn(c.type);
    out->AddColumn(std::move(col));
  }
  while (out->num_rows() < static_cast<size_t>(batch_rows_)) {
    if (!in_valid_) {
      if (input_done_) break;
      FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
      if (!more) {
        input_done_ = true;
        break;
      }
      in_pos_ = 0;
      in_valid_ = in_.num_rows() > 0;
      continue;
    }
    // Group boundary?
    bool boundary = false;
    if (group_open_) {
      for (size_t g = 0; g < group_cols_.size(); ++g) {
        Value v = in_.ValueAt(in_pos_, group_cols_[g]);
        if (group_key_[g].Compare(v) != 0) {
          boundary = true;
          break;
        }
      }
    }
    if (boundary) {
      EmitGroup(out);
      continue;  // re-examine the same row as the new group's first
    }
    if (!group_open_) {
      group_open_ = true;
      group_key_.clear();
      for (int g : group_cols_) group_key_.push_back(in_.ValueAt(in_pos_, g));
      sums_.assign(aggs_.size(), 0.0);
      counts_.assign(aggs_.size(), 0);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      ++counts_[i];
      if (aggs_[i].kind == AggKind::kSum) {
        sums_[i] += NumericAt(in_.col(aggs_[i].col), in_pos_);
      }
    }
    if (++in_pos_ >= in_.num_rows()) in_valid_ = false;
  }
  if (input_done_ && !in_valid_ && group_open_ &&
      out->num_rows() < static_cast<size_t>(batch_rows_)) {
    EmitGroup(out);
  }
  return out->num_rows() > 0;
}

// ---------------------------------------------------- sort + aggregate --

BatchSortAggregate::BatchSortAggregate(BatchOperatorPtr child,
                                       std::vector<SortKey> sort_keys,
                                       std::vector<int> group_cols,
                                       std::vector<AggSpec> aggs,
                                       int batch_rows)
    : BatchOperator("sort_aggregate"),
      child_(std::move(child)),
      sort_keys_(std::move(sort_keys)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      batch_rows_(batch_rows),
      schema_(SortedAggSchema(child_->schema(), group_cols_, aggs_)) {}

Status BatchSortAggregate::Open() {
  rows_ = ColumnSet(child_->schema());
  agg_ = ColumnSet();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void BatchSortAggregate::Close() {
  rows_ = ColumnSet();
  agg_ = ColumnSet();
  child_->Close();
}

Result<bool> BatchSortAggregate::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    Batch b;
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&b));
      if (!more) break;
      rows_.AppendBatch(b);
    }
    std::vector<int64_t> order;
    std::vector<uint64_t> packed;
    SortPermutation(rows_, sort_keys_, &order, &packed);
    // When the sort produced injective packed keys and the group columns
    // are exactly the sort key columns, one word compare decides the group
    // boundary; otherwise compare the group columns directly.
    bool use_packed =
        !packed.empty() && GroupsMatchSortKeys(group_cols_, sort_keys_);
    agg_ = ColumnSet(schema_);
    AggregateSortedRuns(rows_, order, 0, order.size(),
                        use_packed ? packed.data() : nullptr, group_cols_,
                        aggs_, &agg_);
    rows_ = ColumnSet();
  }
  size_t n = agg_.num_rows();
  if (pos_ >= n) return false;
  size_t end = std::min(n, pos_ + static_cast<size_t>(batch_rows_));
  for (int i = 0; i < agg_.num_columns(); ++i) {
    ColumnPtr col = NewColumn(agg_.col(i).type);
    col->Reserve(end - pos_);
    col->AppendRange(agg_.col(i), pos_, end);
    out->AddColumn(std::move(col));
  }
  pos_ = end;
  return true;
}

// ------------------------------------------------------------- helpers --

Status CollectInto(BatchOperator* op, ColumnSet* out) {
  *out = ColumnSet(op->schema());
  FOCUS_RETURN_IF_ERROR(op->Open());
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, op->NextBatch(&b));
    if (!more) break;
    out->AppendBatch(b);
  }
  op->Close();
  return Status::OK();
}

}  // namespace focus::sql
