#include "sql/table.h"

#include "util/hash.h"
#include "util/string_util.h"

namespace focus::sql {

namespace {
int DefaultBits(TypeId type) {
  switch (type) {
    case TypeId::kInt32:
      return 32;
    case TypeId::kInt64:
    case TypeId::kString:
      return 64;
    case TypeId::kDouble:
      break;
  }
  return -1;
}

Result<uint64_t> KeyChunk(const Value& v, int bits) {
  uint64_t chunk = 0;
  switch (v.type()) {
    case TypeId::kInt32: {
      int32_t x = v.AsInt32();
      if (x < 0) {
        return Status::InvalidArgument("negative int32 index key");
      }
      chunk = static_cast<uint32_t>(x);
      break;
    }
    case TypeId::kInt64:
      chunk = static_cast<uint64_t>(v.AsInt64());
      break;
    case TypeId::kString:
      chunk = Fnv1a64(v.AsString());
      break;
    case TypeId::kDouble:
      return Status::InvalidArgument("double index keys are unsupported");
  }
  if (bits < 64 && chunk >> bits != 0) {
    return Status::InvalidArgument(
        StrCat("key value ", chunk, " does not fit in ", bits, " bits"));
  }
  return chunk;
}
}  // namespace

namespace {
// Fills defaulted key_bits and validates the spec against the schema.
Status ResolveIndexSpec(const Schema& schema, IndexSpec* spec) {
  if (spec->key_bits.empty()) {
    for (int col : spec->key_cols) {
      if (col < 0 || col >= schema.num_columns()) {
        return Status::InvalidArgument(
            StrCat("index ", spec->name, ": bad column ", col));
      }
      int bits = DefaultBits(schema.column(col).type);
      if (bits < 0) {
        return Status::InvalidArgument(
            StrCat("index ", spec->name, ": unsupported key type"));
      }
      spec->key_bits.push_back(bits);
    }
  }
  if (spec->key_bits.size() != spec->key_cols.size()) {
    return Status::InvalidArgument(
        StrCat("index ", spec->name, ": key_bits/key_cols size mismatch"));
  }
  int total = 0;
  for (int b : spec->key_bits) total += b;
  if (total > 64) {
    return Status::InvalidArgument(
        StrCat("index ", spec->name, ": packed key needs ", total,
               " bits (max 64)"));
  }
  return Status::OK();
}
}  // namespace

Result<std::unique_ptr<Table>> Table::Create(storage::BufferPool* pool,
                                             std::string name, Schema schema,
                                             std::vector<IndexSpec> indexes) {
  auto table = std::unique_ptr<Table>(
      new Table(pool, std::move(name), std::move(schema)));
  FOCUS_ASSIGN_OR_RETURN(storage::HeapFile heap,
                         storage::HeapFile::Create(pool));
  table->heap_ = std::move(heap);
  for (auto& spec : indexes) {
    FOCUS_RETURN_IF_ERROR(ResolveIndexSpec(table->schema_, &spec));
    FOCUS_ASSIGN_OR_RETURN(storage::BPlusTree tree,
                           storage::BPlusTree::Create(pool));
    table->indexes_.push_back(Index{std::move(spec), std::move(tree)});
  }
  return table;
}

Result<std::unique_ptr<Table>> Table::Attach(storage::BufferPool* pool,
                                             std::string name, Schema schema,
                                             std::vector<IndexSpec> indexes,
                                             const TableLayout& layout) {
  if (layout.indexes.size() != indexes.size()) {
    return Status::InvalidArgument(
        StrCat("table ", name, ": layout has ", layout.indexes.size(),
               " indexes, declaration has ", indexes.size()));
  }
  auto table = std::unique_ptr<Table>(
      new Table(pool, std::move(name), std::move(schema)));
  table->heap_ = storage::HeapFile::Attach(
      pool, layout.heap_first, layout.heap_last, layout.num_records);
  for (size_t i = 0; i < indexes.size(); ++i) {
    auto& spec = indexes[i];
    FOCUS_RETURN_IF_ERROR(ResolveIndexSpec(table->schema_, &spec));
    const IndexLayout& il = layout.indexes[i];
    table->indexes_.push_back(Index{
        std::move(spec),
        storage::BPlusTree::Attach(pool, il.root, il.height, il.num_entries)});
  }
  return table;
}

TableLayout Table::Layout() const {
  TableLayout layout;
  layout.heap_first = heap_->first_page_id();
  layout.heap_last = heap_->last_page_id();
  layout.num_records = heap_->num_records();
  layout.indexes.reserve(indexes_.size());
  for (const auto& index : indexes_) {
    layout.indexes.push_back(IndexLayout{index.tree.root_page_id(),
                                         index.tree.height(),
                                         index.tree.num_entries()});
  }
  return layout;
}

Result<uint64_t> Table::PackKey(int index_idx,
                                const std::vector<Value>& key) const {
  const Index& index = indexes_[index_idx];
  if (key.size() != index.spec.key_cols.size()) {
    return Status::InvalidArgument(
        StrCat("index ", index.spec.name, ": expected ",
               index.spec.key_cols.size(), " key values, got ", key.size()));
  }
  uint64_t packed = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    FOCUS_ASSIGN_OR_RETURN(uint64_t chunk,
                           KeyChunk(key[i], index.spec.key_bits[i]));
    int bits = index.spec.key_bits[i];
    packed = bits >= 64 ? chunk : (packed << bits) | chunk;
  }
  return packed;
}

Result<uint64_t> Table::PackKeyFromTuple(const Index& index,
                                         const Tuple& tuple) const {
  uint64_t packed = 0;
  for (size_t i = 0; i < index.spec.key_cols.size(); ++i) {
    FOCUS_ASSIGN_OR_RETURN(
        uint64_t chunk,
        KeyChunk(tuple.Get(index.spec.key_cols[i]), index.spec.key_bits[i]));
    int bits = index.spec.key_bits[i];
    packed = bits >= 64 ? chunk : (packed << bits) | chunk;
  }
  return packed;
}

Result<storage::Rid> Table::Insert(const Tuple& tuple) {
  if (tuple.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrCat("tuple arity ", tuple.size(), " vs schema ",
               schema_.num_columns()));
  }
  std::string record = tuple.Serialize(schema_);
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, heap_->Insert(record));
  for (auto& index : indexes_) {
    FOCUS_ASSIGN_OR_RETURN(uint64_t key, PackKeyFromTuple(index, tuple));
    FOCUS_RETURN_IF_ERROR(index.tree.Insert(key, rid.Pack()));
  }
  return rid;
}

Status Table::Update(const storage::Rid& rid, const Tuple& tuple) {
  Tuple old;
  FOCUS_RETURN_IF_ERROR(Get(rid, &old));
  std::string record = tuple.Serialize(schema_);
  FOCUS_RETURN_IF_ERROR(heap_->Update(rid, record));
  for (auto& index : indexes_) {
    FOCUS_ASSIGN_OR_RETURN(uint64_t old_key, PackKeyFromTuple(index, old));
    FOCUS_ASSIGN_OR_RETURN(uint64_t new_key, PackKeyFromTuple(index, tuple));
    if (old_key != new_key) {
      FOCUS_RETURN_IF_ERROR(index.tree.Remove(old_key, rid.Pack()));
      FOCUS_RETURN_IF_ERROR(index.tree.Insert(new_key, rid.Pack()));
    }
  }
  return Status::OK();
}

Status Table::Delete(const storage::Rid& rid) {
  Tuple old;
  FOCUS_RETURN_IF_ERROR(Get(rid, &old));
  FOCUS_RETURN_IF_ERROR(heap_->Delete(rid));
  for (auto& index : indexes_) {
    FOCUS_ASSIGN_OR_RETURN(uint64_t key, PackKeyFromTuple(index, old));
    FOCUS_RETURN_IF_ERROR(index.tree.Remove(key, rid.Pack()));
  }
  return Status::OK();
}

Status Table::Get(const storage::Rid& rid, Tuple* out) const {
  std::string record;
  FOCUS_RETURN_IF_ERROR(heap_->Get(rid, &record));
  FOCUS_ASSIGN_OR_RETURN(*out, Tuple::Deserialize(schema_, record));
  return Status::OK();
}

Status Table::FreePages() {
  std::vector<storage::PageId> dead;
  FOCUS_RETURN_IF_ERROR(heap_->CollectPages(&dead));
  for (const auto& index : indexes_) {
    FOCUS_RETURN_IF_ERROR(index.tree.CollectPages(&dead));
  }
  for (storage::PageId id : dead) {
    FOCUS_RETURN_IF_ERROR(pool_->FreePage(id));
  }
  return Status::OK();
}

Status Table::Clear() {
  // Hand the old generation's pages back to the pool first, so the new
  // heap and indexes are built from them rather than from fresh pages.
  FOCUS_RETURN_IF_ERROR(FreePages());
  FOCUS_ASSIGN_OR_RETURN(storage::HeapFile heap,
                         storage::HeapFile::Create(pool_));
  heap_ = std::move(heap);
  for (auto& index : indexes_) {
    FOCUS_ASSIGN_OR_RETURN(storage::BPlusTree tree,
                           storage::BPlusTree::Create(pool_));
    index.tree = std::move(tree);
  }
  return Status::OK();
}

Status Table::IndexLookup(int index_idx, const std::vector<Value>& key,
                          std::vector<storage::Rid>* out) const {
  if (index_idx < 0 || index_idx >= num_indexes()) {
    return Status::InvalidArgument(StrCat("no index ", index_idx));
  }
  FOCUS_ASSIGN_OR_RETURN(uint64_t packed, PackKey(index_idx, key));
  std::vector<uint64_t> rids;
  FOCUS_RETURN_IF_ERROR(indexes_[index_idx].tree.GetAll(packed, &rids));
  out->reserve(out->size() + rids.size());
  for (uint64_t r : rids) out->push_back(storage::Rid::Unpack(r));
  return Status::OK();
}

int Table::IndexId(std::string_view index_name) const {
  for (int i = 0; i < num_indexes(); ++i) {
    if (indexes_[i].spec.name == index_name) return i;
  }
  return -1;
}

Status Table::ScanRecords(std::vector<std::string>* out) const {
  out->reserve(out->size() + heap_->num_records());
  storage::HeapFile::Iterator it = heap_->Scan();
  storage::Rid rid;
  std::string_view record;
  while (it.NextView(&rid, &record)) out->emplace_back(record);
  return it.status();
}

bool Table::Iterator::Next(storage::Rid* rid, Tuple* tuple) {
  std::string_view record;
  if (!NextRecord(rid, &record)) return false;
  auto t = Tuple::Deserialize(table_->schema_, record);
  it_.Unpin();
  if (!t.ok()) {
    status_ = t.status();
    return false;
  }
  *tuple = t.TakeValue();
  return true;
}

}  // namespace focus::sql
