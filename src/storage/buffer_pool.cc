#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/rng.h"

namespace dynopt {

namespace {

// Fibonacci hashing: sequentially allocated PageIds stripe evenly across
// shards, and nearby ids (one heap file's pages) spread apart so one
// table scan does not hammer a single lock.
inline uint64_t MixPageId(PageId id) {
  return static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
}

size_t AutoShardCount(size_t capacity) {
  // One shard per 64 frames, power of two, capped at 16. Pools under 128
  // frames get one shard: identical behavior to the classic single-LRU
  // pool, which the deterministic cost-model tests rely on.
  size_t shards = 1;
  while (shards < 16 && capacity / (shards * 2) >= 64) shards *= 2;
  return shards;
}

constexpr uint64_t kJitterSeed = 0x9E3779B9;

size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

uint64_t JitteredBackoffMicros(const BufferPool::IoRetryPolicy& policy,
                               PageId id, uint32_t attempt) {
  if (attempt == 0) attempt = 1;
  uint64_t backoff = static_cast<uint64_t>(policy.base_backoff_micros)
                     << (std::min(attempt, 32u) - 1);
  backoff = std::min<uint64_t>(backoff, policy.max_backoff_micros);
  double f = std::clamp(policy.jitter_fraction, 0.0, 1.0);
  if (f > 0 && backoff > 0) {
    // Top 53 bits of a seeded hash of (page, attempt) as a uniform [0,1)
    // draw — stateless, lock-free, and replayable for a given seed.
    double u = static_cast<double>(
                   Mix64(kJitterSeed ^ (static_cast<uint64_t>(id) << 8) ^
                         attempt) >>
                   11) /
               static_cast<double>(1ULL << 53);
    backoff = static_cast<uint64_t>(
        static_cast<double>(backoff) * (1.0 - f + 2.0 * f * u));
  }
  return backoff;
}

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    data_ = o.data_;
    shard_ = o.shard_;
    frame_ = o.frame_;
    id_ = o.id_;
    o.pool_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  assert(valid());
  BufferPool::FrameMeta& f = pool_->shards_[shard_]->meta[frame_];
  f.dirty.store(true, std::memory_order_relaxed);
  f.dirty_epoch.store(pool_->mutation_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_, frame_);
    pool_ = nullptr;
  }
}

BufferPool::PageTable::PageTable(size_t frames) {
  size_t slots = std::bit_ceil(2 * frames);
  slots_ = std::make_unique<Slot[]>(slots);
  mask_ = slots - 1;
}

size_t BufferPool::PageTable::Home(PageId id) const {
  return static_cast<size_t>(Mix64(id)) & mask_;
}

size_t BufferPool::PageTable::Probe(PageId id) const {
  size_t i = Home(id);
  while (slots_[i].frame != kNoFrame && slots_[i].id != id) {
    i = (i + 1) & mask_;
  }
  return i;
}

uint32_t BufferPool::PageTable::Find(PageId id) const {
  return slots_[Probe(id)].frame;
}

void BufferPool::PageTable::Insert(PageId id, uint32_t frame) {
  size_t i = Probe(id);
  assert(slots_[i].frame == kNoFrame);
  slots_[i] = Slot{id, frame};
  size_++;
}

void BufferPool::PageTable::Erase(PageId id) {
  size_t hole = Probe(id);
  assert(slots_[hole].frame != kNoFrame);
  // Backward shift: pull each later entry of the run into the hole when
  // the hole lies between its home and its slot, so every probe still
  // reaches its entry before an empty slot.
  for (size_t j = (hole + 1) & mask_; slots_[j].frame != kNoFrame;
       j = (j + 1) & mask_) {
    if (((j - Home(slots_[j].id)) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  size_--;
}

Status BufferPool::PageTable::Check() const {
  size_t occupied = 0;
  for (size_t i = 0; i <= mask_; ++i) {
    if (slots_[i].frame == kNoFrame) continue;
    occupied++;
    if (Probe(slots_[i].id) != i) {
      return Status::Internal("page-table entry unreachable from its home");
    }
  }
  if (occupied != size_) {
    return Status::Internal("page-table size != occupied slots");
  }
  return Status::OK();
}

BufferPool::Shard::Shard(uint32_t frames)
    : frame_count(frames),
      meta(std::make_unique<FrameMeta[]>(frames)),
      images(std::make_unique<PageData[]>(frames)),
      table(frames) {
  free_frames.reserve(frames);
  for (uint32_t f = 0; f < frames; ++f) free_frames.push_back(frames - 1 - f);
}

void BufferPool::Shard::LruPushFront(uint32_t frame) {
  FrameMeta& f = meta[frame];
  f.lru_prev = kNoFrame;
  f.lru_next = lru_head;
  if (lru_head != kNoFrame) {
    meta[lru_head].lru_prev = frame;
  } else {
    lru_tail = frame;
  }
  lru_head = frame;
  lru_size++;
}

void BufferPool::Shard::LruUnlink(uint32_t frame) {
  FrameMeta& f = meta[frame];
  if (f.lru_prev != kNoFrame) {
    meta[f.lru_prev].lru_next = f.lru_next;
  } else {
    lru_head = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    meta[f.lru_next].lru_prev = f.lru_prev;
  } else {
    lru_tail = f.lru_prev;
  }
  f.lru_prev = f.lru_next = kNoFrame;
  lru_size--;
}

BufferPool::BufferPool(PageStore* store, size_t capacity, CostMeter* meter,
                       size_t shards)
    : store_(store),
      capacity_(capacity == 0 ? 1 : capacity),
      meter_(meter != nullptr ? meter : &own_meter_) {
  size_t n = shards == 0 ? AutoShardCount(capacity_)
                         : FloorPow2(std::min(shards, capacity_));
  // hash >> shift selects the shard from the top log2(n) bits; n == 1
  // would need a shift of 64 (UB), so ShardOf special-cases it.
  shard_shift_ = 64;
  for (size_t s = n; s > 1; s /= 2) shard_shift_--;
  shards_.reserve(n);
  size_t base = capacity_ / n;
  size_t extra = capacity_ % n;  // first `extra` shards get one more frame
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        static_cast<uint32_t>(base + (i < extra ? 1 : 0))));
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush; errors here have nowhere to go. No pins should be
  // alive at destruction, so FlushAll covers every dirty page.
  FlushAll().ok();
}

size_t BufferPool::ShardOf(PageId id) const {
  if (shard_shift_ == 64) return 0;
  return static_cast<size_t>(MixPageId(id) >> shard_shift_);
}

Result<PageGuard> BufferPool::Pin(PageId id) {
  meter_ptr()->logical_reads++;
  uint32_t si = static_cast<uint32_t>(ShardOf(id));
  Shard& s = *shards_[si];
  std::unique_lock<std::mutex> lock(s.mu);
  for (;;) {
    uint32_t frame = s.table.Find(id);
    if (frame == kNoFrame) break;
    FrameMeta& f = s.meta[frame];
    if (f.loading) {
      // Another thread is faulting this page in (lock released across its
      // device read and retry backoff). Wait for the outcome, then re-check:
      // on a failed load the placeholder disappears and this thread reads
      // the page itself (the fault may have been transient).
      s.cv.wait(lock);
      continue;
    }
    s.stats.hits++;
    Bump(hit_count_);
    if (f.pins == 0) s.LruUnlink(frame);
    f.pins++;
    return PageGuard(this, si, frame, id, s.images[frame].data());
  }
  s.stats.misses++;
  Bump(miss_count_);
  DYNOPT_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame(s));
  FrameMeta& f = s.meta[frame];
  PageData* image = &s.images[frame];
  // Publish a pinned "loading" placeholder, then drop the shard lock across
  // the device read: retry backoff for one faulty page must not stall
  // unrelated pages that merely share a shard. Pins of this same page wait
  // on the condvar above; the pin keeps every eviction path away.
  f.id = id;
  f.pins = 1;
  f.dirty.store(false, std::memory_order_relaxed);
  f.in_use = true;
  f.loading = true;
  s.table.Insert(id, frame);
  lock.unlock();
  Status read;
  uint32_t attempts = 0;
  QueryContext* query = CurrentQueryContext();
  for (;;) {
    read = store_->Read(id, image);
    ++attempts;
    // Only transient-looking faults (IOError) are worth retrying;
    // Corruption is deterministic and InvalidArgument is a caller bug.
    if (read.ok() || !read.IsIOError() || attempts > retry_.max_retries) {
      break;
    }
    // A backoff sleep needs a token from the global retry budget (when one
    // is attached): under pressure, retries fail fast instead of dogpiling
    // the device with synchronized re-reads.
    if (retry_budget_ != nullptr && !retry_budget_->TryAcquire()) {
      Bump(retry_denied_count_);
      read = WithContext("retry budget exhausted", read);
      break;
    }
    uint64_t backoff = JitteredBackoffMicros(retry_, id, attempts);
    Bump(io_retry_count_);
    Bump(io_backoff_micros_, backoff);
    if (backoff > 0) {
      if (query != nullptr) {
        // Interruptible: Cancel() or deadline expiry on the pinning query
        // wakes the sleep and the pin fails with the typed trip status.
        Status woke = query->WaitInterruptible(backoff);
        if (!woke.ok()) {
          if (retry_budget_ != nullptr) retry_budget_->Release();
          read = woke;
          break;
        }
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
    }
    if (retry_budget_ != nullptr) retry_budget_->Release();
  }
  if (read.IsCorruption() && repairer_ != nullptr) {
    // The store's copy is provably damaged (checksum / frame mismatch).
    // Give the repairer one shot at reconstructing the image — still with
    // no shard lock held, so WAL scans and healing writes are legal here.
    Status repaired = repairer_->Repair(id, read, image);
    if (repaired.ok()) {
      Bump(repair_count_);
      read = Status::OK();
    } else {
      read = repaired;  // typed verdict (quarantine) replaces the raw error
    }
  }
  lock.lock();
  f.loading = false;
  if (!read.ok()) {
    // Roll the placeholder back; waiters wake, miss, and try the read
    // themselves.
    s.table.Erase(id);
    f.pins = 0;
    f.in_use = false;
    f.id = kInvalidPageId;
    s.free_frames.push_back(frame);  // hand the grabbed frame back
    s.cv.notify_all();
    // A governance trip mid-backoff is not a device fault; only I/O
    // verdicts count toward governance.io_faults.
    if (IsIoFault(read)) Bump(io_fault_count_);
    return WithContext("pin of page " + std::to_string(id) + " failed after " +
                           std::to_string(attempts) + " attempt(s)",
                       read);
  }
  meter_ptr()->physical_reads++;
  s.cv.notify_all();
  return PageGuard(this, si, frame, id, image->data());
}

Result<PageGuard> BufferPool::NewPage() {
  if (read_only_) {
    return Status::NotSupported(
        "buffer pool is read-only (warm standby): page allocation would "
        "desynchronize the store watermark from applied redo");
  }
  PageId id = store_->Allocate();
  uint32_t si = static_cast<uint32_t>(ShardOf(id));
  Shard& s = *shards_[si];
  std::lock_guard<std::mutex> lock(s.mu);
  DYNOPT_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame(s));
  FrameMeta& f = s.meta[frame];
  s.images[frame].fill(0);
  f.id = id;
  f.pins = 1;
  f.dirty.store(true, std::memory_order_relaxed);
  f.dirty_epoch.store(mutation_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  f.in_use = true;
  s.table.Insert(id, frame);
  meter_ptr()->logical_reads++;
  return PageGuard(this, si, frame, id, s.images[frame].data());
}

Result<size_t> BufferPool::FlushAll() {
  size_t pinned_committed = 0;
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      FrameMeta& f = s.meta[i];
      if (f.in_use && f.dirty.load(std::memory_order_relaxed) &&
          CanWriteBack(f)) {
        if (f.pins > 0) {
          pinned_committed++;
          continue;
        }
        DYNOPT_RETURN_IF_ERROR(store_->Write(f.id, s.images[i]));
        meter_ptr()->physical_writes++;
        s.stats.writebacks++;
        Bump(writeback_count_);
        f.dirty.store(false, std::memory_order_relaxed);
      }
    }
  }
  return pinned_committed;
}

void BufferPool::AttachMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    hit_count_ = miss_count_ = eviction_count_ = writeback_count_ = nullptr;
    io_retry_count_ = io_backoff_micros_ = io_fault_count_ = nullptr;
    retry_denied_count_ = repair_count_ = nullptr;
    return;
  }
  hit_count_ = registry->counter("buffer_pool.hits");
  miss_count_ = registry->counter("buffer_pool.misses");
  eviction_count_ = registry->counter("buffer_pool.evictions");
  writeback_count_ = registry->counter("buffer_pool.writebacks");
  io_retry_count_ = registry->counter("governance.io_retries");
  io_backoff_micros_ = registry->counter("governance.io_backoff_micros");
  io_fault_count_ = registry->counter("governance.io_faults");
  retry_denied_count_ = registry->counter("governance.retry_denied");
  repair_count_ = registry->counter("integrity.pin_repairs");
}

Status BufferPool::EvictAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    // Most recent first; frames holding uncommitted dirty pages are
    // skipped (they may not reach the store before the WAL covers them).
    for (uint32_t frame = s.lru_head; frame != kNoFrame;) {
      const FrameMeta& f = s.meta[frame];
      uint32_t next = f.lru_next;
      if (!f.dirty.load(std::memory_order_relaxed) || CanWriteBack(f)) {
        DYNOPT_RETURN_IF_ERROR(EvictFrame(s, frame));
      }
      frame = next;
    }
  }
  return Status::OK();
}

uint64_t BufferPool::SnapshotDirtyPages(
    std::vector<std::pair<PageId, PageData>>* out) {
  // Frames dirtied from here on carry a higher epoch and are excluded; the
  // engine is single-writer, so no mutation races the snapshot itself.
  uint64_t epoch = mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      const FrameMeta& f = s.meta[i];
      if (f.in_use && f.dirty.load(std::memory_order_relaxed) &&
          f.dirty_epoch.load(std::memory_order_relaxed) <= epoch) {
        out->emplace_back(f.id, s.images[i]);
      }
    }
  }
  return epoch;
}

void BufferPool::MarkCommittedUpTo(uint64_t epoch) {
  uint64_t cur = flushable_epoch_.load(std::memory_order_relaxed);
  while (cur < epoch && !flushable_epoch_.compare_exchange_weak(
                            cur, epoch, std::memory_order_relaxed)) {
  }
}

Result<size_t> BufferPool::ScrambleCache(Rng& rng, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  size_t evicted = 0;
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    // Evict floor(fraction * unpinned) pages, with one rng draw deciding
    // the fractional remainder — O(evicted), not O(cached). Victims come
    // from the cold end, exactly where real LRU pressure from unrelated
    // activity lands. Frames whose dirty image is not yet WAL-covered are
    // passed over (they cannot legally reach the store).
    double want = fraction * static_cast<double>(s.lru_size);
    size_t quota = static_cast<size_t>(want);
    if (rng.NextDouble() < want - static_cast<double>(quota)) quota++;
    for (uint32_t frame = s.lru_tail; frame != kNoFrame && quota > 0;) {
      const FrameMeta& f = s.meta[frame];
      uint32_t prev = f.lru_prev;
      if (!f.dirty.load(std::memory_order_relaxed) || CanWriteBack(f)) {
        DYNOPT_RETURN_IF_ERROR(EvictFrame(s, frame));
        evicted++;
        quota--;
      }
      frame = prev;
    }
  }
  return evicted;
}

size_t BufferPool::PinnedPages() const {
  size_t pinned = 0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      if (s.meta[i].in_use && s.meta[i].pins > 0) pinned++;
    }
  }
  return pinned;
}

size_t BufferPool::cached_pages() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->table.size();
  }
  return total;
}

BufferPool::ShardStats BufferPool::shard_stats(size_t shard) const {
  const Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats;
}

BufferPool::ShardStats BufferPool::TotalStats() const {
  ShardStats total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardStats s = shard_stats(i);
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.writebacks += s.writebacks;
  }
  return total;
}

Status BufferPool::CheckInvariants() const {
  for (size_t si = 0; si < shards_.size(); ++si) {
    const Shard& s = *shards_[si];
    std::lock_guard<std::mutex> lock(s.mu);
    DYNOPT_RETURN_IF_ERROR(s.table.Check());
    size_t in_use = 0;
    size_t unpinned = 0;
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      const FrameMeta& f = s.meta[i];
      if (!f.in_use) continue;
      in_use++;
      if (f.pins == 0) unpinned++;
      if (s.table.Find(f.id) != i) {
        return Status::Internal("frame id not mapped back to its frame");
      }
      if (ShardOf(f.id) != si) {
        return Status::Internal("page cached in the wrong shard");
      }
    }
    if (in_use != s.table.size()) {
      return Status::Internal("table size != in-use frame count");
    }
    if (in_use + s.free_frames.size() != s.frame_count) {
      return Status::Internal("free list does not cover unused frames");
    }
    for (uint32_t frame : s.free_frames) {
      if (frame >= s.frame_count || s.meta[frame].in_use) {
        return Status::Internal("free list holds an in-use frame");
      }
    }
    if (unpinned != s.lru_size) {
      return Status::Internal("LRU size != unpinned in-use frame count");
    }
    // Walk head to tail: each link must point back, and the walk must end
    // at the tail after exactly lru_size frames.
    size_t walked = 0;
    uint32_t prev = kNoFrame;
    for (uint32_t frame = s.lru_head; frame != kNoFrame;
         frame = s.meta[frame].lru_next) {
      if (frame >= s.frame_count || walked++ == s.lru_size) {
        return Status::Internal("LRU links leave the list");
      }
      const FrameMeta& f = s.meta[frame];
      if (!f.in_use || f.pins != 0) {
        return Status::Internal("LRU entry is not an unpinned in-use frame");
      }
      if (f.lru_prev != prev) {
        return Status::Internal("LRU prev link does not match its walk");
      }
      prev = frame;
    }
    if (walked != s.lru_size || prev != s.lru_tail) {
      return Status::Internal("LRU walk does not end at its tail");
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(uint32_t shard, uint32_t frame) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  FrameMeta& f = s.meta[frame];
  assert(f.pins > 0);
  if (--f.pins == 0) s.LruPushFront(frame);
}

Status BufferPool::EvictFrame(Shard& s, uint32_t frame) {
  FrameMeta& f = s.meta[frame];
  assert(f.in_use && f.pins == 0);
  if (f.dirty.load(std::memory_order_relaxed) && !CanWriteBack(f)) {
    return Status::ResourceExhausted(
        "eviction of a dirty page whose image is not yet WAL-durable");
  }
  s.stats.evictions++;
  Bump(eviction_count_);
  if (f.dirty.load(std::memory_order_relaxed)) {
    DYNOPT_RETURN_IF_ERROR(store_->Write(f.id, s.images[frame]));
    meter_ptr()->physical_writes++;
    s.stats.writebacks++;
    Bump(writeback_count_);
    f.dirty.store(false, std::memory_order_relaxed);
  }
  s.table.Erase(f.id);
  s.LruUnlink(frame);
  f.in_use = false;
  f.id = kInvalidPageId;
  s.free_frames.push_back(frame);
  return Status::OK();
}

Result<uint32_t> BufferPool::GrabFrame(Shard& s) {
  if (!s.free_frames.empty()) {
    uint32_t frame = s.free_frames.back();
    s.free_frames.pop_back();
    return frame;
  }
  if (s.lru_size == 0) {
    return Status::ResourceExhausted(
        "all buffer-pool frames in this shard are pinned");
  }
  // Coldest victim whose write-back the WAL ordering permits. When every
  // unpinned frame holds uncommitted dirty pages the caller must commit
  // (making them flushable) before the pool can make room.
  for (uint32_t frame = s.lru_tail; frame != kNoFrame;
       frame = s.meta[frame].lru_prev) {
    const FrameMeta& f = s.meta[frame];
    if (f.dirty.load(std::memory_order_relaxed) && !CanWriteBack(f)) {
      continue;
    }
    DYNOPT_RETURN_IF_ERROR(EvictFrame(s, frame));
    s.free_frames.pop_back();  // EvictFrame freed `frame` last
    return frame;
  }
  return Status::ResourceExhausted(
      "every unpinned frame in this shard holds an uncommitted dirty page; "
      "commit to make them flushable");
}

}  // namespace dynopt
