// Heap file: unordered record storage over slotted pages.
//
// Records are addressed by RID (page id + slot). Inserts append to the last
// page, allocating a new page when full; scans walk the page chain in
// allocation order, which makes a full-table scan sequential on disk — the
// access pattern the paper's bulk (sort-merge) plans rely on.
#ifndef FOCUS_STORAGE_HEAP_FILE_H_
#define FOCUS_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace focus::storage {

// Record id: packs (page_id, slot).
struct Rid {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(page_id) << 16) | slot;
  }
  static Rid Unpack(uint64_t packed) {
    Rid r;
    r.page_id = static_cast<PageId>(packed >> 16);
    r.slot = static_cast<uint16_t>(packed & 0xFFFF);
    return r;
  }
  bool operator==(const Rid& other) const = default;
};

class HeapFile {
 public:
  // Creates an empty heap file, allocating its first page.
  static Result<HeapFile> Create(BufferPool* pool);

  // Reattaches to an existing heap file from its persisted layout (first /
  // last page of the chain plus the live-record count). Used by crash
  // recovery: the page chain itself lives in the pages, but the chain head
  // and tail are in-memory state that must be restored from the catalog
  // metadata a WAL commit carried (see wal.h).
  static HeapFile Attach(BufferPool* pool, PageId first_page_id,
                         PageId last_page_id, uint64_t num_records);

  // Inserts a record; fails if the record cannot fit in a fresh page.
  Result<Rid> Insert(std::string_view record);

  // Reads the record at `rid` into `out`.
  Status Get(const Rid& rid, std::string* out) const;

  // Overwrites the record at `rid` in place. The new record must have
  // exactly the original length (all mutated focus rows are fixed-width).
  Status Update(const Rid& rid, std::string_view record);

  // Tombstones the record at `rid`. Space within the page is not compacted.
  Status Delete(const Rid& rid);

  // Appends the id of every page of the chain to `out`, head first (for
  // handing a dropped file's pages back to the pool).
  Status CollectPages(std::vector<PageId>* out) const;

  uint64_t num_records() const { return num_records_; }
  PageId first_page_id() const { return first_page_id_; }
  PageId last_page_id() const { return last_page_id_; }

  // Forward scan over live records in page order.
  //
  // Pin rule: no iterator holds a pin between calls of its owner. A
  // caller that walks records through NextView keeps the current page
  // pinned only while it decodes that page's records, and calls Unpin
  // before it returns control (external sort keeps hundreds of run
  // cursors open in a small pool, so a cursor parked on a pin would
  // starve it). Next copies the record and unpins before it returns.
  class Iterator {
   public:
    // Advances to the next live record and points `record` into the
    // pinned page: valid until the next NextView, Next or Unpin. The page
    // stays pinned across calls that stay on it, so a caller walking a
    // whole page fetches it once. Returns false, holding no pin, at
    // end-of-file or on error (check status()).
    bool NextView(Rid* rid, std::string_view* record);
    // NextView plus a copy into `record`; holds no pin on return.
    bool Next(Rid* rid, std::string* record);
    // Drops the current page's pin (idempotent). The position is kept: the
    // next NextView fetches the page again and resumes after the last
    // record returned.
    void Unpin() { pin_.reset(); }
    const Status& status() const { return status_; }

   private:
    friend class HeapFile;
    Iterator(const HeapFile* file, PageId page_id)
        : file_(file), page_id_(page_id) {}
    const HeapFile* file_;
    PageId page_id_;
    uint16_t slot_ = 0;
    // The pin on page_id_, held between NextView calls on one page.
    std::optional<PageGuard> pin_;
    Status status_;
  };

  Iterator Scan() const { return Iterator(this, first_page_id_); }

 private:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  PageId first_page_id_ = kInvalidPageId;
  PageId last_page_id_ = kInvalidPageId;
  uint64_t num_records_ = 0;
};

}  // namespace focus::storage

#endif  // FOCUS_STORAGE_HEAP_FILE_H_
