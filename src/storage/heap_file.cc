#include "storage/heap_file.h"

namespace dynopt {

namespace {

// Heap page layout:
//   [0..2)  uint16 slot_count
//   [2..4)  uint16 free_off      first unused byte of the record area
//   [4..8)  reserved
//   records grow up from kHeaderSize; slot entries grow down from the end,
//   4 bytes each: {uint16 offset, uint16 len}. len == kTombstoneLen marks a
//   deleted record.
constexpr size_t kHeaderSize = 8;
constexpr size_t kSlotSize = 4;
constexpr uint16_t kTombstoneLen = 0xffff;

uint16_t SlotCount(const uint8_t* p) { return PageRead<uint16_t>(p, 0); }
void SetSlotCount(uint8_t* p, uint16_t v) { PageWrite<uint16_t>(p, 0, v); }
uint16_t FreeOff(const uint8_t* p) { return PageRead<uint16_t>(p, 2); }
void SetFreeOff(uint8_t* p, uint16_t v) { PageWrite<uint16_t>(p, 2, v); }

size_t SlotPos(uint16_t slot) { return kPageSize - kSlotSize * (slot + 1); }

uint16_t SlotOffset(const uint8_t* p, uint16_t slot) {
  return PageRead<uint16_t>(p, SlotPos(slot));
}
uint16_t SlotLen(const uint8_t* p, uint16_t slot) {
  return PageRead<uint16_t>(p, SlotPos(slot) + 2);
}
void SetSlot(uint8_t* p, uint16_t slot, uint16_t offset, uint16_t len) {
  PageWrite<uint16_t>(p, SlotPos(slot), offset);
  PageWrite<uint16_t>(p, SlotPos(slot) + 2, len);
}

// A page whose slot directory overlaps its record area did not come out of
// this code — it is external corruption (bad device, torn write reaching
// the cache), reported as a typed error rather than an abort.
Result<size_t> FreeSpace(const uint8_t* p, PageId id) {
  size_t slots_end = kPageSize - kSlotSize * SlotCount(p);
  size_t free_off = FreeOff(p);
  if (slots_end < free_off) {
    return Status::Corruption(
        "heap page " + std::to_string(id) +
        ": slot directory overlaps record area (slots end at " +
        std::to_string(slots_end) + ", free_off " + std::to_string(free_off) +
        ")");
  }
  return slots_end - free_off;
}

bool RecordInBounds(uint16_t off, uint16_t len) {
  return static_cast<size_t>(off) + len <= kPageSize && off >= kHeaderSize;
}

// Validates that a slot's record lies inside the page body.
Status CheckRecordBounds(PageId id, uint16_t slot, uint16_t off,
                         uint16_t len) {
  if (!RecordInBounds(off, len)) {
    return Status::Corruption("heap page " + std::to_string(id) + " slot " +
                              std::to_string(slot) +
                              ": record extends past page bounds (off " +
                              std::to_string(off) + ", len " +
                              std::to_string(len) + ")");
  }
  return Status::OK();
}

void InitHeapPage(uint8_t* p) {
  SetSlotCount(p, 0);
  SetFreeOff(p, kHeaderSize);
}

}  // namespace

Status HeapFile::CheckPage(const uint8_t* p, PageId id,
                           std::vector<uint16_t>* live_slots) {
  uint16_t count = SlotCount(p);
  size_t free_off = FreeOff(p);
  if (static_cast<size_t>(count) * kSlotSize > kPageSize - kHeaderSize) {
    return Status::Corruption("heap page " + std::to_string(id) +
                              ": slot count " + std::to_string(count) +
                              " overflows the page");
  }
  size_t slots_end = kPageSize - kSlotSize * count;
  if (free_off < kHeaderSize || free_off > slots_end) {
    return Status::Corruption("heap page " + std::to_string(id) +
                              ": free_off " + std::to_string(free_off) +
                              " outside [header, slot directory)");
  }
  for (uint16_t slot = 0; slot < count; ++slot) {
    uint16_t len = SlotLen(p, slot);
    if (len == kTombstoneLen) continue;
    uint16_t off = SlotOffset(p, slot);
    // Insert only ever places records below free_off, so the audit can
    // hold slots to that tighter bound than the runtime fetch path does.
    if (off < kHeaderSize || static_cast<size_t>(off) + len > free_off) {
      return Status::Corruption(
          "heap page " + std::to_string(id) + " slot " + std::to_string(slot) +
          ": record [" + std::to_string(off) + ", " +
          std::to_string(off + len) + ") outside the record area");
    }
    if (live_slots != nullptr) live_slots->push_back(slot);
  }
  return Status::OK();
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(BufferPool* pool) {
  std::unique_ptr<HeapFile> file(new HeapFile(pool));
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool->NewPage());
  InitHeapPage(page.mutable_data());
  file->pages_.push_back(page.id());
  return file;
}

std::unique_ptr<HeapFile> HeapFile::Open(BufferPool* pool,
                                         std::vector<PageId> pages,
                                         uint64_t record_count) {
  std::unique_ptr<HeapFile> file(new HeapFile(pool));
  file->pages_ = std::move(pages);
  file->record_count_ = record_count;
  return file;
}

Result<Rid> HeapFile::Insert(std::string_view record) {
  if (record.size() + kSlotSize > kPageSize - kHeaderSize) {
    return Status::InvalidArgument("record larger than page capacity");
  }
  PageId last = pages_.back();
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(last));
  DYNOPT_ASSIGN_OR_RETURN(size_t free_space, FreeSpace(page.data(), last));
  if (free_space < record.size() + kSlotSize) {
    page.Release();
    DYNOPT_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
    InitHeapPage(fresh.mutable_data());
    pages_.push_back(fresh.id());
    page = std::move(fresh);
  }
  uint8_t* p = page.mutable_data();
  uint16_t slot = SlotCount(p);
  uint16_t off = FreeOff(p);
  std::memcpy(p + off, record.data(), record.size());
  SetSlot(p, slot, off, static_cast<uint16_t>(record.size()));
  SetFreeOff(p, static_cast<uint16_t>(off + record.size()));
  SetSlotCount(p, static_cast<uint16_t>(slot + 1));
  record_count_++;
  Rid rid;
  rid.page = page.id();
  rid.slot = slot;
  return rid;
}

Status HeapFile::Fetch(const Rid& rid, std::string* out) {
  if (!rid.valid()) return Status::NotFound("invalid rid");
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(rid.page));
  const uint8_t* p = page.data();
  if (rid.slot >= SlotCount(p)) return Status::NotFound("slot out of range");
  uint16_t len = SlotLen(p, rid.slot);
  if (len == kTombstoneLen) return Status::NotFound("record deleted");
  uint16_t off = SlotOffset(p, rid.slot);
  DYNOPT_RETURN_IF_ERROR(CheckRecordBounds(rid.page, rid.slot, off, len));
  out->assign(reinterpret_cast<const char*>(p) + off, len);
  return Status::OK();
}

Status HeapFile::Delete(const Rid& rid) {
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(rid.page));
  uint8_t* p = page.mutable_data();
  if (rid.slot >= SlotCount(p)) return Status::NotFound("slot out of range");
  if (SlotLen(p, rid.slot) == kTombstoneLen) {
    return Status::NotFound("record already deleted");
  }
  SetSlot(p, rid.slot, 0, kTombstoneLen);
  record_count_--;
  return Status::OK();
}

Result<bool> HeapFile::Cursor::Next(std::string* record, Rid* rid) {
  while (page_index_ < file_->pages_.size()) {
    PageId pid = file_->pages_[page_index_];
    if (!guard_.valid() || guard_.id() != pid) {
      DYNOPT_ASSIGN_OR_RETURN(guard_, file_->pool_->Pin(pid));
    }
    const uint8_t* p = guard_.data();
    uint16_t count = SlotCount(p);
    while (next_slot_ < count) {
      uint16_t slot = next_slot_++;
      uint16_t len = SlotLen(p, slot);
      if (len == kTombstoneLen) continue;
      uint16_t off = SlotOffset(p, slot);
      DYNOPT_RETURN_IF_ERROR(CheckRecordBounds(pid, slot, off, len));
      record->assign(reinterpret_cast<const char*>(p) + off, len);
      rid->page = pid;
      rid->slot = slot;
      return true;
    }
    page_index_++;
    next_slot_ = 0;
  }
  guard_.Release();
  return false;
}

Result<size_t> HeapFile::Cursor::NextPage(
    size_t max, std::vector<std::string_view>* records,
    std::vector<Rid>* rids) {
  records->clear();
  rids->clear();
  if (max == 0) return size_t{0};
  while (page_index_ < file_->pages_.size()) {
    PageId pid = file_->pages_[page_index_];
    if (!guard_.valid() || guard_.id() != pid) {
      DYNOPT_ASSIGN_OR_RETURN(guard_, file_->pool_->Pin(pid));
    }
    const uint8_t* p = guard_.data();
    uint16_t count = SlotCount(p);
    while (next_slot_ < count && records->size() < max) {
      uint16_t slot = next_slot_++;
      uint16_t len = SlotLen(p, slot);
      if (len == kTombstoneLen) continue;
      uint16_t off = SlotOffset(p, slot);
      if (!RecordInBounds(off, len)) {
        return CheckRecordBounds(pid, slot, off, len);
      }
      records->emplace_back(reinterpret_cast<const char*>(p) + off, len);
      rids->push_back(Rid{pid, slot});
    }
    if (!records->empty()) return records->size();
    page_index_++;
    next_slot_ = 0;
  }
  guard_.Release();
  return size_t{0};
}

Result<std::string_view> HeapFile::BatchReader::Read(const Rid& rid) {
  if (!rid.valid()) return Status::NotFound("invalid rid");
  if (!guard_.valid() || guard_.id() != rid.page) {
    DYNOPT_ASSIGN_OR_RETURN(guard_, file_->pool_->Pin(rid.page));
  }
  const uint8_t* p = guard_.data();
  if (rid.slot >= SlotCount(p)) return Status::NotFound("slot out of range");
  uint16_t len = SlotLen(p, rid.slot);
  if (len == kTombstoneLen) return Status::NotFound("record deleted");
  uint16_t off = SlotOffset(p, rid.slot);
  DYNOPT_RETURN_IF_ERROR(CheckRecordBounds(rid.page, rid.slot, off, len));
  return std::string_view(reinterpret_cast<const char*>(p) + off, len);
}

}  // namespace dynopt
