#include "sql/exec/batch.h"

#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

namespace focus::sql {

ColumnData::ColumnData(TypeId t) : type(t) {
  if (type == TypeId::kString) str_offsets.push_back(0);
}

size_t ColumnData::size() const {
  switch (type) {
    case TypeId::kInt32:
      return i32.size();
    case TypeId::kInt64:
      return i64.size();
    case TypeId::kDouble:
      return f64.size();
    case TypeId::kString:
      return str_offsets.size() - 1;
  }
  return 0;
}

void ColumnData::Clear() {
  i32.clear();
  i64.clear();
  f64.clear();
  str_offsets.clear();
  arena.clear();
  nulls.clear();
  if (type == TypeId::kString) str_offsets.push_back(0);
}

void ColumnData::Reserve(size_t n) {
  switch (type) {
    case TypeId::kInt32:
      i32.reserve(n);
      break;
    case TypeId::kInt64:
      i64.reserve(n);
      break;
    case TypeId::kDouble:
      f64.reserve(n);
      break;
    case TypeId::kString:
      str_offsets.reserve(n + 1);
      break;
  }
}

Value ColumnData::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null(type);
  switch (type) {
    case TypeId::kInt32:
      return Value::Int32(i32[row]);
    case TypeId::kInt64:
      return Value::Int64(i64[row]);
    case TypeId::kDouble:
      return Value::Double(f64[row]);
    case TypeId::kString:
      return Value::Str(std::string(StringAt(row)));
  }
  return Value();
}

void ColumnData::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  FOCUS_DCHECK(v.type() == type);
  switch (type) {
    case TypeId::kInt32:
      i32.push_back(v.AsInt32());
      break;
    case TypeId::kInt64:
      i64.push_back(v.AsInt64());
      break;
    case TypeId::kDouble:
      f64.push_back(v.AsDouble());
      break;
    case TypeId::kString:
      arena.append(v.AsString());
      str_offsets.push_back(static_cast<uint32_t>(arena.size()));
      break;
  }
  if (!nulls.empty()) nulls.push_back(0);
}

void ColumnData::AppendNull() {
  if (nulls.empty()) nulls.assign(size(), 0);
  switch (type) {
    case TypeId::kInt32:
      i32.push_back(0);
      break;
    case TypeId::kInt64:
      i64.push_back(0);
      break;
    case TypeId::kDouble:
      f64.push_back(0);
      break;
    case TypeId::kString:
      str_offsets.push_back(static_cast<uint32_t>(arena.size()));
      break;
  }
  nulls.push_back(1);
}

void ColumnData::AppendFrom(const ColumnData& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  FOCUS_DCHECK(src.type == type);
  switch (type) {
    case TypeId::kInt32:
      i32.push_back(src.i32[row]);
      break;
    case TypeId::kInt64:
      i64.push_back(src.i64[row]);
      break;
    case TypeId::kDouble:
      f64.push_back(src.f64[row]);
      break;
    case TypeId::kString: {
      std::string_view s = src.StringAt(row);
      arena.append(s);
      str_offsets.push_back(static_cast<uint32_t>(arena.size()));
      break;
    }
  }
  if (!nulls.empty()) nulls.push_back(0);
}

void ColumnData::AppendRange(const ColumnData& src, size_t begin,
                             size_t end) {
  FOCUS_DCHECK(src.type == type);
  if (src.has_nulls()) {
    for (size_t r = begin; r < end; ++r) AppendFrom(src, r);
    return;
  }
  switch (type) {
    case TypeId::kInt32:
      i32.insert(i32.end(), src.i32.begin() + begin, src.i32.begin() + end);
      break;
    case TypeId::kInt64:
      i64.insert(i64.end(), src.i64.begin() + begin, src.i64.begin() + end);
      break;
    case TypeId::kDouble:
      f64.insert(f64.end(), src.f64.begin() + begin, src.f64.begin() + end);
      break;
    case TypeId::kString: {
      uint32_t base = static_cast<uint32_t>(arena.size());
      arena.append(src.arena, src.str_offsets[begin],
                   src.str_offsets[end] - src.str_offsets[begin]);
      for (size_t r = begin; r < end; ++r) {
        str_offsets.push_back(base + src.str_offsets[r + 1] -
                              src.str_offsets[begin]);
      }
      break;
    }
  }
  if (!nulls.empty()) nulls.insert(nulls.end(), end - begin, 0);
}

ColumnPtr Gather(const ColumnData& src, const int64_t* idx, size_t n) {
  ColumnPtr out = NewColumn(src.type);
  out->Reserve(n);
  bool any_null = src.has_nulls();
  if (!any_null) {
    for (size_t k = 0; k < n; ++k) {
      if (idx[k] < 0) {
        any_null = true;
        break;
      }
    }
  }
  if (!any_null) {
    // Fast paths: tight loops over flat arrays, no null bookkeeping.
    switch (src.type) {
      case TypeId::kInt32:
        for (size_t k = 0; k < n; ++k) out->i32.push_back(src.i32[idx[k]]);
        break;
      case TypeId::kInt64:
        for (size_t k = 0; k < n; ++k) out->i64.push_back(src.i64[idx[k]]);
        break;
      case TypeId::kDouble:
        for (size_t k = 0; k < n; ++k) out->f64.push_back(src.f64[idx[k]]);
        break;
      case TypeId::kString:
        for (size_t k = 0; k < n; ++k) {
          out->arena.append(src.StringAt(idx[k]));
          out->str_offsets.push_back(
              static_cast<uint32_t>(out->arena.size()));
        }
        break;
    }
    return out;
  }
  for (size_t k = 0; k < n; ++k) {
    if (idx[k] < 0) {
      out->AppendNull();
    } else {
      out->AppendFrom(src, static_cast<size_t>(idx[k]));
    }
  }
  return out;
}

int CompareColumnRows(const ColumnData& a, size_t ra, const ColumnData& b,
                      size_t rb) {
  bool an = a.IsNull(ra), bn = b.IsNull(rb);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  FOCUS_DCHECK(a.type == b.type);
  switch (a.type) {
    case TypeId::kInt32: {
      int32_t l = a.i32[ra], r = b.i32[rb];
      return l < r ? -1 : (l > r ? 1 : 0);
    }
    case TypeId::kInt64: {
      int64_t l = a.i64[ra], r = b.i64[rb];
      return l < r ? -1 : (l > r ? 1 : 0);
    }
    case TypeId::kDouble: {
      double l = a.f64[ra], r = b.f64[rb];
      return l < r ? -1 : (l > r ? 1 : 0);
    }
    case TypeId::kString:
      return a.StringAt(ra).compare(b.StringAt(rb));
  }
  return 0;
}

int CompareRowsOnKeys(const std::vector<ColumnPtr>& cols, size_t a, size_t b,
                      const std::vector<SortKey>& keys) {
  for (const SortKey& key : keys) {
    int c = CompareColumnRows(*cols[key.col], a, *cols[key.col], b);
    if (c != 0) return key.descending ? -c : c;
  }
  return 0;
}

RecordDecoder::RecordDecoder(const Schema& table_schema,
                             std::vector<int> cols) {
  if (cols.empty()) {
    for (int i = 0; i < table_schema.num_columns(); ++i) cols.push_back(i);
  }
  std::vector<Column> selected;
  selected.reserve(cols.size());
  for (int c : cols) selected.push_back(table_schema.column(c));
  output_schema_ = Schema(std::move(selected));
  fields_.reserve(table_schema.num_columns());
  for (int i = 0; i < table_schema.num_columns(); ++i) {
    Field f{table_schema.column(i).type, static_cast<uint32_t>(outs_.size()),
            0};
    for (size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) outs_.push_back(static_cast<int>(k));
    }
    f.count = static_cast<uint32_t>(outs_.size()) - f.first;
    fields_.push_back(f);
  }
}

Status RecordDecoder::Append(std::string_view record,
                             ColumnData* const* out) const {
  const char* data = record.data();
  const size_t size = record.size();
  size_t offset = 0;
  auto need = [&](size_t n) -> Status {
    if (offset + n > size) {
      return Status::OutOfRange(StrCat("truncated value at offset ", offset));
    }
    return Status::OK();
  };
  for (const Field& f : fields_) {
    const int* outs = outs_.data() + f.first;
    switch (f.type) {
      case TypeId::kInt32: {
        FOCUS_RETURN_IF_ERROR(need(4));
        int32_t v;
        std::memcpy(&v, data + offset, 4);
        for (uint32_t k = 0; k < f.count; ++k) out[outs[k]]->i32.push_back(v);
        offset += 4;
        break;
      }
      case TypeId::kInt64: {
        FOCUS_RETURN_IF_ERROR(need(8));
        int64_t v;
        std::memcpy(&v, data + offset, 8);
        for (uint32_t k = 0; k < f.count; ++k) out[outs[k]]->i64.push_back(v);
        offset += 8;
        break;
      }
      case TypeId::kDouble: {
        FOCUS_RETURN_IF_ERROR(need(8));
        double v;
        std::memcpy(&v, data + offset, 8);
        for (uint32_t k = 0; k < f.count; ++k) out[outs[k]]->f64.push_back(v);
        offset += 8;
        break;
      }
      case TypeId::kString: {
        FOCUS_RETURN_IF_ERROR(need(2));
        uint16_t len;
        std::memcpy(&len, data + offset, 2);
        offset += 2;
        FOCUS_RETURN_IF_ERROR(need(len));
        for (uint32_t k = 0; k < f.count; ++k) {
          ColumnData* col = out[outs[k]];
          col->arena.append(data + offset, len);
          col->str_offsets.push_back(static_cast<uint32_t>(col->arena.size()));
        }
        offset += len;
        break;
      }
    }
  }
  if (offset != size) {
    return Status::InvalidArgument(
        StrCat("trailing bytes in record: ", size - offset));
  }
  return Status::OK();
}

void Batch::ToTuple(size_t row, Tuple* out) const {
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (const ColumnPtr& col : cols_) values.push_back(col->ValueAt(row));
  *out = Tuple(std::move(values));
}

void Batch::AppendTuple(const Schema& schema, const Tuple& t) {
  if (cols_.empty()) {
    cols_.reserve(schema.num_columns());
    for (const Column& c : schema.columns()) {
      cols_.push_back(NewColumn(c.type));
    }
  }
  for (int i = 0; i < static_cast<int>(cols_.size()); ++i) {
    cols_[i]->AppendValue(t.Get(i));
  }
}

ColumnSet::ColumnSet(const Schema& schema) : schema_(schema) {
  cols_.reserve(schema_.num_columns());
  for (const Column& c : schema_.columns()) cols_.push_back(NewColumn(c.type));
}

ColumnSet::ColumnSet(Schema schema, std::vector<ColumnPtr> cols)
    : schema_(std::move(schema)), cols_(std::move(cols)) {
  FOCUS_DCHECK(static_cast<int>(cols_.size()) == schema_.num_columns());
  for (const ColumnPtr& c : cols_) {
    FOCUS_DCHECK(c != nullptr);
    FOCUS_DCHECK(c->size() == cols_[0]->size());
  }
}

void ColumnSet::AppendBatch(const Batch& b) {
  FOCUS_DCHECK(b.num_columns() == num_columns());
  size_t n = b.num_rows();
  for (int i = 0; i < num_columns(); ++i) {
    cols_[i]->AppendRange(b.col(i), 0, n);
  }
}

void ColumnSet::AppendTuple(const Tuple& t) {
  for (int i = 0; i < num_columns(); ++i) cols_[i]->AppendValue(t.Get(i));
}

void ColumnSet::Clear() {
  for (ColumnPtr& col : cols_) col->Clear();
}

}  // namespace focus::sql
