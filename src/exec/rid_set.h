// Hybrid RID lists and filters (§6).
//
// "The RID list size quantity is split into several monotonically
// increasing regions": a zero-length list shortcuts retrieval, lists up to
// ~20 RIDs live in a small statically-allocated buffer (no allocation
// overhead), bigger lists move to an allocated heap buffer, and bigger
// still spill to a temporary table while a hashed bitmap [Babb79] of "a
// size as small as necessary" stands in as the membership filter. The
// list owns that temporary table: packed 1,023-RID pages of its own,
// metered as temp-table I/O, so no spill page ever reaches the buffer
// pool, the WAL or the database file.
//
// After Seal(), a list answers membership probes: exact for in-memory
// storage, no-false-negative (possible false positives) for the spilled
// bitmap. False positives are harmless to the engine — the final stage
// re-evaluates the full restriction on fetched records anyway. Seal() also
// puts a small hashed bitmap in front of an in-memory list's sorted
// buffer, so most non-members are rejected without a binary search.
//
// Appends and probes come in batches: one call per index-entry batch, one
// meter charge per call (a spill page also charges its temp-table write as
// it starts). The charges equal one rid_op per RID appended or probed,
// exactly as a per-RID loop would make them.

#ifndef DYNOPT_EXEC_RID_SET_H_
#define DYNOPT_EXEC_RID_SET_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace dynopt {

class HybridRidList {
 public:
  struct Options {
    /// Capacity of the statically-allocated region (the paper's "up to 20
    /// RIDs ... avoiding any run-time allocation").
    size_t inline_capacity = 20;
    /// RIDs held in the allocated heap buffer before spilling to a temp
    /// table — the Jscan "main memory buffer".
    size_t memory_capacity = 4096;
    /// Hashed-bitmap size (bits) used as the filter once spilled.
    size_t bitmap_bits = 1 << 16;
  };

  enum class Storage { kInline, kHeap, kSpilled };

  /// RIDs per temp-table page: an 8 KiB page less an 8-byte header, in
  /// packed 64-bit RIDs.
  static constexpr size_t kRidsPerPage = (kPageSize - 8) / sizeof(uint64_t);

  /// `pool` supplies the meter charges land in (its installed meter) and
  /// the metrics registry; it may be null, and then nothing is charged.
  explicit HybridRidList(BufferPool* pool) : HybridRidList(pool, Options()) {}
  HybridRidList(BufferPool* pool, Options options);
  HybridRidList(const HybridRidList&) = delete;
  HybridRidList& operator=(const HybridRidList&) = delete;
  /// Refunds the spill bytes of every temp-table page, so early unwind —
  /// cancel, deadline, fault — leaks no budget.
  ~HybridRidList();

  /// Attaches governance accounting: in-memory appends charge RID-list
  /// bytes, spill pages charge (and on destruction refund) spill bytes.
  /// Call before the first Append; null detaches it, and the destructor
  /// then refunds nothing.
  void set_context(QueryContext* ctx) { ctx_ = ctx; }

  /// Appends rids[i] for every i in `sel`, in `sel` order (duplicates are
  /// the caller's concern). Charges one rid_op per RID and the in-memory
  /// RID-list bytes once per call; each temp-table page the spill starts
  /// charges one physical write and one page of spill bytes.
  Status Append(std::span<const Rid> rids, std::span<const uint32_t> sel);

  /// One-RID Append.
  Status Append(Rid rid) {
    const uint32_t first = 0;
    return Append(std::span<const Rid>(&rid, 1),
                  std::span<const uint32_t>(&first, 1));
  }

  uint64_t size() const { return size_; }
  Storage storage() const { return storage_; }
  bool empty() const { return size_ == 0; }

  /// Finalizes the list for filtering: sorts the in-memory region and,
  /// unless spilled, builds the hashed bitmap in front of it (about 8 bits
  /// per RID, a power of two, at least one 64-bit word). Appends after
  /// Seal() are rejected.
  Status Seal();

  /// Batch membership probe (requires Seal()): sets `*keep` to the
  /// ascending indexes i of `rids` whose RID the list might contain.
  /// Exact unless spilled; spilled lists answer through their bitmap (no
  /// false negatives). Charges one rid_op per probed RID, once per call.
  void Probe(std::span<const Rid> rids, std::vector<uint32_t>* keep) const;

  /// One-RID Probe.
  bool MightContain(Rid rid) const;

  /// True when probes are exact (the list did not spill to its lossy
  /// bitmap).
  bool filter_is_exact() const { return storage_ != Storage::kSpilled; }

  /// Materializes all RIDs in sorted order. Reading the spill back costs
  /// one physical and one logical read per temp-table page — the cost the
  /// hybrid arrangement spares small lists. The paper sorts the final list
  /// so several records on one page are fetched together.
  std::vector<Rid> ToSortedVector() const;

  /// The RIDs held in memory (inline or heap region) — the portion a
  /// fast-first foreground may borrow from (§7). Spilled RIDs are
  /// excluded. Order is append order before Seal(), sorted order after.
  std::span<const Rid> InMemory() const {
    if (storage_ == Storage::kInline) {
      return std::span<const Rid>(inline_buf_.data(),
                                  static_cast<size_t>(size_));
    }
    return heap_buf_;
  }

 private:
  void SetBit(Rid rid);
  /// The probe both MightContain and Probe run; charges nothing.
  bool Contains(Rid rid) const;
  /// Charges `n` rid_ops (and, for in-memory appends, `bytes` RID-list
  /// bytes) in one meter add.
  void Charge(uint64_t n, uint64_t bytes = 0) const;
  /// Temp-table pages the spilled region fills (the last may be partial).
  uint64_t spill_pages() const {
    return (spill_.size() + kRidsPerPage - 1) / kRidsPerPage;
  }

  BufferPool* pool_;
  QueryContext* ctx_ = nullptr;
  Counter* m_reallocs_ = nullptr;  // exec.realloc_count (audit, should stay 0)
  Options options_;
  Storage storage_ = Storage::kInline;
  bool sealed_ = false;
  uint64_t size_ = 0;

  std::array<Rid, 32> inline_buf_;            // first region (<= capacity)
  std::vector<Rid> heap_buf_;                 // second region
  std::vector<Rid> spill_;                    // third region, append order
  // Hashed bitmap [Babb79]: the whole filter once spilled (bit = hash mod
  // options_.bitmap_bits), or, once an in-memory list is sealed, the
  // pre-check in front of its sorted buffer (bit = hash & filter_mask_).
  std::vector<uint64_t> bitmap_;
  uint64_t filter_mask_ = 0;
};

/// Distinct heap pages among a stream of RIDs: one bit per page id, plus a
/// running count — the Jscan's live page-spread measurement (§3b). Sized
/// for `page_count` ids up front; a higher id grows it to exactly that id.
class PageBitmap {
 public:
  explicit PageBitmap(size_t page_count = 0)
      : words_((page_count + 63) / 64, 0) {}

  void Insert(PageId page) {
    size_t word = page / 64;
    if (word >= words_.size()) {
      words_.reserve(word + 1);  // exact: no growth slack
      words_.resize(word + 1, 0);
    }
    uint64_t bit = uint64_t{1} << (page % 64);
    count_ += (words_[word] & bit) == 0;
    words_[word] |= bit;
  }

  uint64_t count() const { return count_; }

 private:
  std::vector<uint64_t> words_;
  uint64_t count_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_RID_SET_H_
