// Table: a heap file of serialized tuples plus secondary B+-tree indexes.
//
// Index keys are packed into a single uint64 by concatenating per-column
// bit fields (most significant first), so composite keys like the paper's
// (pcid, tid) probe key order lexicographically. Key columns must be
// non-negative integers (ids, hashes) or strings (hashed; equality-only).
#ifndef FOCUS_SQL_TABLE_H_
#define FOCUS_SQL_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sql/schema.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace focus::sql {

struct IndexSpec {
  std::string name;
  std::vector<int> key_cols;
  // Bits per key column; empty means defaults (int32: 32, int64/string: 64).
  // Total must be <= 64.
  std::vector<int> key_bits;
};

// Persisted storage position of one B+-tree index.
struct IndexLayout {
  storage::PageId root = storage::kInvalidPageId;
  int height = 1;
  uint64_t num_entries = 0;
};

// Everything a table needs — beyond its schema and index specs, which the
// owning application re-declares — to reattach to its pages after a crash.
// Serialized into WAL commit metadata by Catalog::SerializeLayouts.
struct TableLayout {
  storage::PageId heap_first = storage::kInvalidPageId;
  storage::PageId heap_last = storage::kInvalidPageId;
  uint64_t num_records = 0;
  std::vector<IndexLayout> indexes;
};

class Table {
 public:
  static Result<std::unique_ptr<Table>> Create(storage::BufferPool* pool,
                                               std::string name,
                                               Schema schema,
                                               std::vector<IndexSpec> indexes);

  // Reattaches to existing storage: same declaration as Create, plus the
  // persisted layout recovered from WAL metadata. `layout.indexes` must
  // match `indexes` in length.
  static Result<std::unique_ptr<Table>> Attach(storage::BufferPool* pool,
                                               std::string name,
                                               Schema schema,
                                               std::vector<IndexSpec> indexes,
                                               const TableLayout& layout);

  // Snapshot of the current storage position (for persistence).
  TableLayout Layout() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return heap_->num_records(); }
  int num_indexes() const { return static_cast<int>(indexes_.size()); }
  storage::BufferPool* buffer_pool() const { return pool_; }

  Result<storage::Rid> Insert(const Tuple& tuple);
  Status Update(const storage::Rid& rid, const Tuple& tuple);
  Status Delete(const storage::Rid& rid);
  Status Get(const storage::Rid& rid, Tuple* out) const;

  // Drops every row (and index entry). The old heap and index pages go
  // back to the buffer pool's free list (BufferPool::FreePage), so callers
  // that clear and refill repeatedly (the distiller's "delete from HUBS")
  // reuse the same pages instead of growing the file.
  Status Clear();

  // Hands every heap and index page back to the buffer pool's free list,
  // leaving the table unusable: for a table about to be dropped.
  Status FreePages();

  // Equality lookup on index `index_idx`; appends matching RIDs to `out`.
  Status IndexLookup(int index_idx, const std::vector<Value>& key,
                     std::vector<storage::Rid>* out) const;

  // Index id by name, or -1.
  int IndexId(std::string_view index_name) const;

  // Packs `key` values per the index spec.
  Result<uint64_t> PackKey(int index_idx, const std::vector<Value>& key) const;

  // Forward scan over rows, under the heap iterator's pin rule (see
  // storage::HeapFile::Iterator).
  class Iterator {
   public:
    // Decodes the next row into `tuple`; holds no pin on return.
    bool Next(storage::Rid* rid, Tuple* tuple);
    // The next row's serialized record, a view into the pinned heap page
    // (valid until the next call): for decoders that read columns straight
    // from the page. Call Unpin before handing control back.
    bool NextRecord(storage::Rid* rid, std::string_view* record) {
      if (it_.NextView(rid, record)) return true;
      status_ = it_.status();
      return false;
    }
    void Unpin() { it_.Unpin(); }
    const Status& status() const { return status_; }

   private:
    friend class Table;
    Iterator(const Table* table, storage::HeapFile::Iterator it)
        : table_(table), it_(std::move(it)) {}
    const Table* table_;
    storage::HeapFile::Iterator it_;
    Status status_;
  };

  Iterator Scan() const { return Iterator(this, heap_->Scan()); }

  // Appends every serialized heap record in scan order, undecoded,
  // fetching each heap page once. The parallel table scan collects records
  // through one pass here (the heap and buffer pool are not safe for
  // concurrent iteration), then splits the decode across morsels.
  Status ScanRecords(std::vector<std::string>* out) const;

 private:
  struct Index {
    IndexSpec spec;
    storage::BPlusTree tree;
  };

  Table(storage::BufferPool* pool, std::string name, Schema schema)
      : pool_(pool), name_(std::move(name)), schema_(std::move(schema)) {}

  Result<uint64_t> PackKeyFromTuple(const Index& index,
                                    const Tuple& tuple) const;

  storage::BufferPool* pool_;
  std::string name_;
  Schema schema_;
  std::optional<storage::HeapFile> heap_;
  std::vector<Index> indexes_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_TABLE_H_
