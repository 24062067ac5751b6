#include "storage/heap_file.h"

#include <cstring>

#include "util/string_util.h"

namespace focus::storage {

// Slotted page layout:
//   [0]  uint32 next_page_id
//   [4]  uint16 slot_count
//   [6]  uint16 free_end   (records occupy [free_end, kPageSize))
//   [8]  slot directory: per slot {uint16 offset, uint16 length}
// Tombstoned slots have offset == kTombstone.
namespace {
constexpr uint32_t kOffNext = 0;
constexpr uint32_t kOffSlotCount = 4;
constexpr uint32_t kOffFreeEnd = 6;
constexpr uint32_t kSlotDirStart = 8;
constexpr uint16_t kTombstone = 0xFFFF;

uint32_t SlotEntryOffset(uint16_t slot) { return kSlotDirStart + 4u * slot; }

void InitPage(Page* page) {
  page->Zero();
  page->Write<uint32_t>(kOffNext, kInvalidPageId);
  page->Write<uint16_t>(kOffSlotCount, 0);
  page->Write<uint16_t>(kOffFreeEnd, static_cast<uint16_t>(kPageSize));
}

uint32_t FreeSpace(const Page& page) {
  uint16_t slot_count = page.Read<uint16_t>(kOffSlotCount);
  uint16_t free_end = page.Read<uint16_t>(kOffFreeEnd);
  uint32_t dir_end = kSlotDirStart + 4u * slot_count;
  return free_end > dir_end ? free_end - dir_end : 0;
}
}  // namespace

Result<HeapFile> HeapFile::Create(BufferPool* pool) {
  HeapFile file(pool);
  PageId id;
  FOCUS_ASSIGN_OR_RETURN(Page * page, pool->NewPage(&id));
  InitPage(page);
  pool->UnpinPage(id, /*dirty=*/true);
  file.first_page_id_ = id;
  file.last_page_id_ = id;
  return file;
}

HeapFile HeapFile::Attach(BufferPool* pool, PageId first_page_id,
                          PageId last_page_id, uint64_t num_records) {
  HeapFile file(pool);
  file.first_page_id_ = first_page_id;
  file.last_page_id_ = last_page_id;
  file.num_records_ = num_records;
  return file;
}

Result<Rid> HeapFile::Insert(std::string_view record) {
  if (record.size() + 4 > kPageSize - kSlotDirStart) {
    return Status::InvalidArgument(
        StrCat("record of ", record.size(), " bytes exceeds page capacity"));
  }
  PageGuard guard(pool_, last_page_id_);
  if (!guard.ok()) return guard.status();
  Page* page = guard.page();
  if (FreeSpace(*page) < record.size() + 4) {
    // Chain a fresh page.
    PageId new_id;
    FOCUS_ASSIGN_OR_RETURN(Page * new_page, pool_->NewPage(&new_id));
    InitPage(new_page);
    page->Write<uint32_t>(kOffNext, new_id);
    guard.MarkDirty();
    guard.Release();
    pool_->UnpinPage(new_id, /*dirty=*/true);
    last_page_id_ = new_id;
    return Insert(record);
  }
  uint16_t slot_count = page->Read<uint16_t>(kOffSlotCount);
  uint16_t free_end = page->Read<uint16_t>(kOffFreeEnd);
  uint16_t offset = static_cast<uint16_t>(free_end - record.size());
  std::memcpy(page->data + offset, record.data(), record.size());
  page->Write<uint16_t>(SlotEntryOffset(slot_count), offset);
  page->Write<uint16_t>(SlotEntryOffset(slot_count) + 2,
                        static_cast<uint16_t>(record.size()));
  page->Write<uint16_t>(kOffSlotCount, static_cast<uint16_t>(slot_count + 1));
  page->Write<uint16_t>(kOffFreeEnd, offset);
  guard.MarkDirty();
  ++num_records_;
  return Rid{last_page_id_, slot_count};
}

Status HeapFile::Get(const Rid& rid, std::string* out) const {
  PageGuard guard(pool_, rid.page_id);
  if (!guard.ok()) return guard.status();
  const Page* page = guard.page();
  uint16_t slot_count = page->Read<uint16_t>(kOffSlotCount);
  if (rid.slot >= slot_count) {
    return Status::NotFound(StrCat("slot ", rid.slot, " out of range"));
  }
  uint16_t offset = page->Read<uint16_t>(SlotEntryOffset(rid.slot));
  uint16_t length = page->Read<uint16_t>(SlotEntryOffset(rid.slot) + 2);
  if (offset == kTombstone) {
    return Status::NotFound(StrCat("slot ", rid.slot, " deleted"));
  }
  out->assign(page->data + offset, length);
  return Status::OK();
}

Status HeapFile::Update(const Rid& rid, std::string_view record) {
  PageGuard guard(pool_, rid.page_id);
  if (!guard.ok()) return guard.status();
  Page* page = guard.page();
  uint16_t slot_count = page->Read<uint16_t>(kOffSlotCount);
  if (rid.slot >= slot_count) {
    return Status::NotFound(StrCat("slot ", rid.slot, " out of range"));
  }
  uint16_t offset = page->Read<uint16_t>(SlotEntryOffset(rid.slot));
  uint16_t length = page->Read<uint16_t>(SlotEntryOffset(rid.slot) + 2);
  if (offset == kTombstone) {
    return Status::NotFound(StrCat("slot ", rid.slot, " deleted"));
  }
  if (record.size() != length) {
    return Status::InvalidArgument(
        StrCat("in-place update size mismatch: ", record.size(), " vs ",
               length));
  }
  std::memcpy(page->data + offset, record.data(), record.size());
  guard.MarkDirty();
  return Status::OK();
}

Status HeapFile::Delete(const Rid& rid) {
  PageGuard guard(pool_, rid.page_id);
  if (!guard.ok()) return guard.status();
  Page* page = guard.page();
  uint16_t slot_count = page->Read<uint16_t>(kOffSlotCount);
  if (rid.slot >= slot_count) {
    return Status::NotFound(StrCat("slot ", rid.slot, " out of range"));
  }
  uint16_t offset = page->Read<uint16_t>(SlotEntryOffset(rid.slot));
  if (offset == kTombstone) {
    return Status::NotFound(StrCat("slot ", rid.slot, " already deleted"));
  }
  page->Write<uint16_t>(SlotEntryOffset(rid.slot), kTombstone);
  guard.MarkDirty();
  --num_records_;
  return Status::OK();
}

Status HeapFile::CollectPages(std::vector<PageId>* out) const {
  for (PageId id = first_page_id_; id != kInvalidPageId;) {
    out->push_back(id);
    PageGuard guard(pool_, id);
    if (!guard.ok()) return guard.status();
    id = guard.page()->Read<uint32_t>(kOffNext);
  }
  return Status::OK();
}

bool HeapFile::Iterator::NextView(Rid* rid, std::string_view* record) {
  while (page_id_ != kInvalidPageId) {
    if (!pin_.has_value()) {
      pin_.emplace(file_->pool_, page_id_);
      if (!pin_->ok()) {
        status_ = pin_->status();
        pin_.reset();
        return false;
      }
    }
    const Page* page = pin_->page();
    uint16_t slot_count = page->Read<uint16_t>(kOffSlotCount);
    while (slot_ < slot_count) {
      uint16_t slot = slot_++;
      uint16_t offset = page->Read<uint16_t>(SlotEntryOffset(slot));
      if (offset == kTombstone) continue;
      uint16_t length = page->Read<uint16_t>(SlotEntryOffset(slot) + 2);
      *record = std::string_view(page->data + offset, length);
      *rid = Rid{page_id_, slot};
      return true;
    }
    page_id_ = page->Read<uint32_t>(kOffNext);
    slot_ = 0;
    pin_.reset();
    // Chained heap pages are allocated roughly in order: stream a window
    // ahead so a full scan pays one seek per batch, not one per page.
    file_->pool_->MaybePrefetchChain(page_id_);
  }
  return false;
}

bool HeapFile::Iterator::Next(Rid* rid, std::string* record) {
  std::string_view view;
  bool found = NextView(rid, &view);
  if (found) record->assign(view);
  Unpin();
  return found;
}

}  // namespace focus::storage
