#include "exec/rid_set.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dynopt {

namespace {

uint64_t MixRid(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

HybridRidList::HybridRidList(BufferPool* pool, Options options)
    : pool_(pool), options_(options) {
  if (pool_ != nullptr && pool_->metrics() != nullptr) {
    m_reallocs_ = pool_->metrics()->counter("exec.realloc_count");
  }
  options_.inline_capacity =
      std::min(options_.inline_capacity, inline_buf_.size());
  if (options_.memory_capacity < options_.inline_capacity) {
    options_.memory_capacity = options_.inline_capacity;
  }
  if (options_.bitmap_bits == 0) options_.bitmap_bits = 64;
  // A power of two, so a spilled list's probe masks instead of dividing.
  options_.bitmap_bits = std::bit_ceil(options_.bitmap_bits);
}

HybridRidList::~HybridRidList() {
  if (ctx_ != nullptr && !spill_.empty()) {
    ctx_->ReleaseSpillBytes(spill_pages() * kPageSize);
  }
}

void HybridRidList::SetBit(Rid rid) {
  uint64_t bit = MixRid(rid.ToU64()) & filter_mask_;
  bitmap_[bit / 64] |= uint64_t{1} << (bit % 64);
}

void HybridRidList::Charge(uint64_t n, uint64_t bytes) const {
  if (n != 0 && pool_ != nullptr) pool_->meter_ptr()->rid_ops += n;
  if (bytes != 0 && ctx_ != nullptr) ctx_->ChargeRidListBytes(bytes);
}

Status HybridRidList::Append(std::span<const Rid> rids,
                             std::span<const uint32_t> sel) {
  if (sealed_) return Status::Internal("append to sealed RID list");
  const size_t n = sel.size();
  size_t i = 0;
  if (storage_ == Storage::kInline) {
    size_t take = std::min(n, options_.inline_capacity - size_);
    for (; i < take; ++i) inline_buf_[size_++] = rids[sel[i]];
    if (i < n) {
      // Promote: copy the inline region into an allocated buffer sized
      // for the whole in-memory region at once — the list grows to
      // memory_capacity before spilling, so anything smaller buys a
      // doubling-and-memcpy cascade inside the scan hot loop.
      heap_buf_.reserve(options_.memory_capacity);
      heap_buf_.assign(inline_buf_.begin(), inline_buf_.begin() + size_);
      storage_ = Storage::kHeap;
    }
  }
  if (storage_ == Storage::kHeap && i < n) {
    size_t take =
        std::min(n - i, options_.memory_capacity - heap_buf_.size());
    if (heap_buf_.size() + take > heap_buf_.capacity()) Bump(m_reallocs_);
    for (size_t end = i + take; i < end; ++i) {
      heap_buf_.push_back(rids[sel[i]]);
    }
    size_ += take;
  }
  const size_t in_memory = i;
  if (i < n && storage_ != Storage::kSpilled) {
    // Overflow: start the temporary table and build the bitmap over
    // everything seen so far.
    bitmap_.assign((options_.bitmap_bits + 63) / 64, 0);
    filter_mask_ = options_.bitmap_bits - 1;
    for (const Rid& r : heap_buf_) SetBit(r);
    storage_ = Storage::kSpilled;
  }
  for (; i < n; ++i) {
    if (spill_.size() % kRidsPerPage == 0) {
      // A fresh temp-table page: one page write, one page of live spill.
      if (pool_ != nullptr) pool_->meter_ptr()->physical_writes++;
      if (ctx_ != nullptr) ctx_->ChargeSpillBytes(kPageSize);
    }
    spill_.push_back(rids[sel[i]]);
    SetBit(spill_.back());
  }
  size_ += n - in_memory;
  Charge(n, in_memory * sizeof(Rid));
  return Status::OK();
}

Status HybridRidList::Seal() {
  if (sealed_) return Status::OK();
  sealed_ = true;
  if (storage_ == Storage::kInline) {
    std::sort(inline_buf_.begin(), inline_buf_.begin() + size_);
  } else {
    std::sort(heap_buf_.begin(), heap_buf_.end());
  }
  if (storage_ != Storage::kSpilled) {
    // About 8 bits per RID, rounded down to a power of two so a probe
    // masks instead of dividing: most non-members find their bit clear
    // and skip the binary search.
    uint64_t bits = std::max<uint64_t>(64, std::bit_floor(8 * size_));
    filter_mask_ = bits - 1;
    bitmap_.assign(bits / 64, 0);
    for (const Rid& r : InMemory()) SetBit(r);
  }
  return Status::OK();
}

bool HybridRidList::Contains(Rid rid) const {
  assert(sealed_ && "filter probed before Seal()");
  uint64_t bit = MixRid(rid.ToU64()) & filter_mask_;
  if (((bitmap_[bit / 64] >> (bit % 64)) & 1) == 0) return false;
  if (storage_ == Storage::kSpilled) return true;
  std::span<const Rid> mem = InMemory();
  return std::binary_search(mem.begin(), mem.end(), rid);
}

void HybridRidList::Probe(std::span<const Rid> rids,
                          std::vector<uint32_t>* keep) const {
  Charge(rids.size());
  keep->clear();
  keep->reserve(rids.size());
  for (uint32_t i = 0; i < rids.size(); ++i) {
    if (Contains(rids[i])) keep->push_back(i);
  }
}

bool HybridRidList::MightContain(Rid rid) const {
  Charge(1);
  return Contains(rid);
}

std::vector<Rid> HybridRidList::ToSortedVector() const {
  std::vector<Rid> out;
  out.reserve(size_);
  std::span<const Rid> mem = InMemory();
  out.assign(mem.begin(), mem.end());
  if (const uint64_t pages = spill_pages(); pages != 0 && pool_ != nullptr) {
    CostMeter* meter = pool_->meter_ptr();
    meter->physical_reads += pages;
    meter->logical_reads += pages;
  }
  out.insert(out.end(), spill_.begin(), spill_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dynopt
