// Columnar batches for the vectorized executor.
//
// The scalar engine moves one Tuple (a vector of 48-byte Value variants)
// per virtual call; the vectorized engine moves a Batch of ~1024 rows laid
// out as typed column vectors: int32/int64/double as flat std::vector<T>,
// strings as an offset array over a shared character arena. Columns are
// reference-counted (ColumnPtr), so pass-through operators (a projection
// that keeps a column, a filter that drops no rows, a source smaller than
// one batch) forward columns by pointer without copying a byte.
//
// NULLs exist only transiently (outer-join padding, exactly like the
// scalar engine): a column's `nulls` byte vector is empty — meaning all
// rows valid — unless some operator introduced NULLs.
#ifndef FOCUS_SQL_EXEC_BATCH_H_
#define FOCUS_SQL_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sql/exec/sort.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace focus::sql {

// Rows per batch; large enough to amortize per-batch virtual dispatch,
// small enough that a working set of batches stays cache-resident.
inline constexpr int kDefaultBatchRows = 1024;

// One typed column vector. Exactly one of the payload vectors is active,
// selected by `type`; for kString, `str_offsets` holds size()+1 offsets
// into `arena` (offset[0] == 0).
struct ColumnData {
  TypeId type = TypeId::kInt32;
  std::vector<int32_t> i32;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint32_t> str_offsets;
  std::string arena;
  // Empty means all rows valid; else size() bytes, 1 = NULL.
  std::vector<uint8_t> nulls;

  explicit ColumnData(TypeId t = TypeId::kInt32);

  size_t size() const;
  void Clear();
  void Reserve(size_t n);

  bool IsNull(size_t row) const { return !nulls.empty() && nulls[row] != 0; }
  bool has_nulls() const { return !nulls.empty(); }
  std::string_view StringAt(size_t row) const {
    return std::string_view(arena).substr(
        str_offsets[row], str_offsets[row + 1] - str_offsets[row]);
  }

  // Row accessors bridging to the scalar engine's Value representation.
  Value ValueAt(size_t row) const;
  void AppendValue(const Value& v);  // type must match (NULLs allowed)
  void AppendNull();
  void AppendFrom(const ColumnData& src, size_t row);
  void AppendRange(const ColumnData& src, size_t begin, size_t end);
};

using ColumnPtr = std::shared_ptr<ColumnData>;

inline ColumnPtr NewColumn(TypeId type) {
  return std::make_shared<ColumnData>(type);
}

// out[i] = src[idx[i]]; an index of -1 produces NULL (outer-join padding).
ColumnPtr Gather(const ColumnData& src, const int64_t* idx, size_t n);
inline ColumnPtr Gather(const ColumnData& src,
                        const std::vector<int64_t>& idx) {
  return Gather(src, idx.data(), idx.size());
}

// Three-way row comparison with Value::Compare semantics (NULL sorts
// before everything; types must match).
int CompareColumnRows(const ColumnData& a, size_t ra, const ColumnData& b,
                      size_t rb);

// Lexicographic comparison across `keys` (reuses the scalar SortKey).
int CompareRowsOnKeys(const std::vector<ColumnPtr>& cols, size_t a, size_t b,
                      const std::vector<SortKey>& keys);

// Decodes serialized heap records (Tuple::Serialize's format) straight
// into typed column vectors, with Tuple::Deserialize's checks: a truncated
// value is OutOfRange, bytes left after the last column InvalidArgument.
// `cols` selects the output columns by table column index (empty = all,
// in order); a pruned column is stepped over without a copy, and a column
// named twice is appended to both outputs.
class RecordDecoder {
 public:
  RecordDecoder(const Schema& table_schema, std::vector<int> cols);

  // The selected columns, in output order.
  const Schema& output_schema() const { return output_schema_; }

  // Appends one record's selected values: out[k] receives table column
  // cols[k]. The outputs must carry no NULL vector. On error the outputs
  // may hold a partial row; discard them.
  Status Append(std::string_view record, ColumnData* const* out) const;

 private:
  struct Field {
    TypeId type;
    // outs_[first, first + count): the output positions it feeds.
    uint32_t first;
    uint32_t count;
  };
  std::vector<Field> fields_;  // every table column, in record order
  std::vector<int> outs_;
  Schema output_schema_;
};

// A horizontal slice of a result: shared columns + implied row count.
// Operators Reset() the caller's batch and either install fresh columns or
// forward the child's ColumnPtrs.
class Batch {
 public:
  void Reset() { cols_.clear(); }

  int num_columns() const { return static_cast<int>(cols_.size()); }
  size_t num_rows() const { return cols_.empty() ? 0 : cols_[0]->size(); }

  void AddColumn(ColumnPtr col) { cols_.push_back(std::move(col)); }
  const ColumnData& col(int i) const { return *cols_[i]; }
  ColumnData* mutable_col(int i) { return cols_[i].get(); }
  const ColumnPtr& col_ptr(int i) const { return cols_[i]; }

  Value ValueAt(size_t row, int col) const {
    return cols_[col]->ValueAt(row);
  }
  // Rebuilds `out` as the scalar image of row `row`.
  void ToTuple(size_t row, Tuple* out) const;
  // Appends every column of `t` (column count must match on non-empty).
  void AppendTuple(const Schema& schema, const Tuple& t);

 private:
  std::vector<ColumnPtr> cols_;
};

// A fully materialized columnar rowset — the staging area for sort, merge
// join, and the "with ... as" temps of Figure 3. Columns are ColumnPtrs so
// a BatchSource over a small set shares them zero-copy.
class ColumnSet {
 public:
  ColumnSet() = default;
  explicit ColumnSet(const Schema& schema);
  // Adopts existing columns (shared, zero-copy). Column count must match
  // the schema and all columns must have equal lengths.
  ColumnSet(Schema schema, std::vector<ColumnPtr> cols);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return static_cast<int>(cols_.size()); }
  size_t num_rows() const { return cols_.empty() ? 0 : cols_[0]->size(); }

  const ColumnData& col(int i) const { return *cols_[i]; }
  ColumnData* mutable_col(int i) { return cols_[i].get(); }
  const ColumnPtr& col_ptr(int i) const { return cols_[i]; }

  void AppendBatch(const Batch& b);
  void AppendTuple(const Tuple& t);
  void Clear();

 private:
  Schema schema_;
  std::vector<ColumnPtr> cols_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_BATCH_H_
