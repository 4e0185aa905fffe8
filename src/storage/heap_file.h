// HeapFile: slotted-page record storage.
//
// Records are opaque byte strings placed in insertion order on a chain of
// slotted pages; a record's address is its Rid (page, slot). The heap file
// is the "data record" store of the paper: Tscan walks it sequentially,
// Fscan and the final Jscan stage fetch from it by RID (the expensive random
// operation every tactic tries to minimize).

#ifndef DYNOPT_STORAGE_HEAP_FILE_H_
#define DYNOPT_STORAGE_HEAP_FILE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace dynopt {

class HeapFile {
 public:
  /// Creates an empty heap file with one allocated page.
  static Result<std::unique_ptr<HeapFile>> Create(BufferPool* pool);

  /// Rebinds a heap file to its already-stored pages (catalog reopen).
  static std::unique_ptr<HeapFile> Open(BufferPool* pool,
                                        std::vector<PageId> pages,
                                        uint64_t record_count);

  /// Appends a record; fails with InvalidArgument when the record cannot fit
  /// on an empty page.
  Result<Rid> Insert(std::string_view record);

  /// Reads the record at `rid` into `*out`. NotFound for deleted/invalid rids.
  Status Fetch(const Rid& rid, std::string* out);

  /// Tombstones the record at `rid`.
  Status Delete(const Rid& rid);

  uint64_t record_count() const { return record_count_; }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Full structural audit of one heap page: bounded slot directory,
  /// bounded free_off, every live record inside [header, free_off). On
  /// success appends the page's live slot indices to `*live_slots` (may be
  /// null). This is the integrity verifier's entry point — stricter than
  /// the runtime Fetch path, which only guards the bytes it is about to
  /// dereference.
  static Status CheckPage(const uint8_t* p, PageId id,
                          std::vector<uint16_t>* live_slots);

  /// Forward cursor over live records in physical order. Holds a pin on
  /// the current page, so iterating records within one page is CPU-only
  /// and buffer charges accrue once per page (sequential-scan economics).
  /// Both walks pin the next page only when a record past the current
  /// one's is asked for.
  class Cursor {
   public:
    explicit Cursor(HeapFile* file) : file_(file) {}
    Cursor(Cursor&&) = default;
    Cursor& operator=(Cursor&&) = default;

    /// Advances to the next live record, copying it. Returns false at end
    /// of file. The row-at-a-time walk (the naive oracle's).
    Result<bool> Next(std::string* record, Rid* rid);

    /// The batched Tscan's walk: the next live records, at most `max`, all
    /// from the one page the cursor stands on or, when that page has none
    /// left, from the next page that has any. They replace the contents of
    /// `*records` (views into the pinned page, invalidated by the next
    /// cursor call or Reset()) and `*rids`. Returns how many; 0 at end of
    /// file (or when `max` is 0).
    Result<size_t> NextPage(size_t max, std::vector<std::string_view>* records,
                            std::vector<Rid>* rids);

    /// Restarts from the beginning.
    void Reset() {
      page_index_ = 0;
      next_slot_ = 0;
      guard_.Release();
    }

   private:
    HeapFile* file_;
    size_t page_index_ = 0;
    uint16_t next_slot_ = 0;
    PageGuard guard_;
  };

  Cursor NewCursor() { return Cursor(this); }

  /// Page-clustered random reads for batched fetches. Callers sort each
  /// RID batch by (page, slot) and stream it through Read(): the reader
  /// keeps the current page pinned, so the sharded pool is locked once
  /// per distinct page rather than once per row. Returned views are
  /// invalidated by the next Read() that changes pages (sorted input
  /// keeps every view of one page valid until the batch moves on).
  class BatchReader {
   public:
    explicit BatchReader(HeapFile* file) : file_(file) {}

    /// The record at `rid` as a view into the pinned page.
    /// NotFound for deleted/invalid rids (same contract as Fetch).
    Result<std::string_view> Read(const Rid& rid);

    /// Drops the current pin.
    void Release() { guard_.Release(); }

   private:
    HeapFile* file_;
    PageGuard guard_;
  };

  BatchReader NewBatchReader() { return BatchReader(this); }

 private:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  std::vector<PageId> pages_;
  uint64_t record_count_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_HEAP_FILE_H_
