#include "storage/buffer_pool.h"

#include <algorithm>
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
    shard_ = o.shard_;
    frame_ = o.frame_;
    id_ = o.id_;
    o.pool_ = nullptr;
  }
  return *this;
}

const uint8_t* PageGuard::data() const {
  assert(valid());
  return pool_->shards_[shard_]->frames[frame_].data.data();
}

uint8_t* PageGuard::mutable_data() {
  assert(valid());
  MarkDirty();
  return pool_->shards_[shard_]->frames[frame_].data.data();
}

void PageGuard::MarkDirty() {
  assert(valid());
  BufferPool::Frame& f = pool_->shards_[shard_]->frames[frame_];
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
    auto shard = std::make_unique<Shard>();
    shard->frame_count = static_cast<uint32_t>(base + (i < extra ? 1 : 0));
    shard->frames = std::make_unique<Frame[]>(shard->frame_count);
    shard->free_frames.reserve(shard->frame_count);
    for (uint32_t f = 0; f < shard->frame_count; ++f) {
      shard->free_frames.push_back(shard->frame_count - 1 - f);
    }
    shards_.push_back(std::move(shard));
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
    auto it = s.table.find(id);
    if (it == s.table.end()) break;
    Frame& f = s.frames[it->second];
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
    if (f.pins == 0) {
      s.lru.erase(f.lru_pos);
    }
    f.pins++;
    return PageGuard(this, si, it->second, id);
  }
  s.stats.misses++;
  Bump(miss_count_);
  DYNOPT_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame(s));
  Frame& f = s.frames[frame];
  // Publish a pinned "loading" placeholder, then drop the shard lock across
  // the device read: retry backoff for one faulty page must not stall
  // unrelated pages that merely share a shard. Pins of this same page wait
  // on the condvar above; the pin keeps every eviction path away.
  f.id = id;
  f.pins = 1;
  f.dirty.store(false, std::memory_order_relaxed);
  f.in_use = true;
  f.loading = true;
  s.table[id] = frame;
  lock.unlock();
  Status read;
  uint32_t attempts = 0;
  QueryContext* query = CurrentQueryContext();
  for (;;) {
    read = store_->Read(id, &f.data);
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
    Status repaired = repairer_->Repair(id, read, &f.data);
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
    s.table.erase(id);
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
  return PageGuard(this, si, frame, id);
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
  Frame& f = s.frames[frame];
  f.data.fill(0);
  f.id = id;
  f.pins = 1;
  f.dirty.store(true, std::memory_order_relaxed);
  f.dirty_epoch.store(mutation_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  f.in_use = true;
  s.table[id] = frame;
  meter_ptr()->logical_reads++;
  return PageGuard(this, si, frame, id);
}

Result<size_t> BufferPool::FlushAll() {
  size_t pinned_committed = 0;
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      Frame& f = s.frames[i];
      if (f.in_use && f.dirty.load(std::memory_order_relaxed) &&
          CanWriteBack(f)) {
        if (f.pins > 0) {
          pinned_committed++;
          continue;
        }
        DYNOPT_RETURN_IF_ERROR(store_->Write(f.id, f.data));
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
    // Collect victims first: frames holding uncommitted dirty pages are
    // skipped (they may not reach the store before the WAL covers them).
    std::vector<uint32_t> victims;
    victims.reserve(s.lru.size());
    for (uint32_t frame : s.lru) {
      const Frame& f = s.frames[frame];
      if (f.dirty.load(std::memory_order_relaxed) && !CanWriteBack(f)) {
        continue;
      }
      victims.push_back(frame);
    }
    for (uint32_t frame : victims) {
      DYNOPT_RETURN_IF_ERROR(EvictFrame(s, frame));
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
      Frame& f = s.frames[i];
      if (f.in_use && f.dirty.load(std::memory_order_relaxed) &&
          f.dirty_epoch.load(std::memory_order_relaxed) <= epoch) {
        out->emplace_back(f.id, f.data);
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
    double want = fraction * static_cast<double>(s.lru.size());
    size_t quota = static_cast<size_t>(want);
    if (rng.NextDouble() < want - static_cast<double>(quota)) quota++;
    std::vector<uint32_t> victims;
    victims.reserve(quota);
    for (auto it = s.lru.rbegin(); it != s.lru.rend() && victims.size() < quota;
         ++it) {
      const Frame& f = s.frames[*it];
      if (f.dirty.load(std::memory_order_relaxed) && !CanWriteBack(f)) {
        continue;
      }
      victims.push_back(*it);
    }
    for (uint32_t frame : victims) {
      DYNOPT_RETURN_IF_ERROR(EvictFrame(s, frame));
      evicted++;
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
      if (s.frames[i].in_use && s.frames[i].pins > 0) pinned++;
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
    size_t in_use = 0;
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      const Frame& f = s.frames[i];
      if (!f.in_use) continue;
      in_use++;
      auto it = s.table.find(f.id);
      if (it == s.table.end() || it->second != i) {
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
    size_t unpinned = 0;
    for (uint32_t i = 0; i < s.frame_count; ++i) {
      if (s.frames[i].in_use && s.frames[i].pins == 0) unpinned++;
    }
    if (unpinned != s.lru.size()) {
      return Status::Internal("LRU size != unpinned in-use frame count");
    }
    for (uint32_t frame : s.lru) {
      if (frame >= s.frame_count || !s.frames[frame].in_use ||
          s.frames[frame].pins != 0) {
        return Status::Internal("LRU entry is not an unpinned in-use frame");
      }
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(uint32_t shard, uint32_t frame) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  Frame& f = s.frames[frame];
  assert(f.pins > 0);
  f.pins--;
  if (f.pins == 0) {
    s.lru.push_front(frame);
    f.lru_pos = s.lru.begin();
  }
}

Status BufferPool::EvictFrame(Shard& s, uint32_t frame) {
  Frame& f = s.frames[frame];
  assert(f.in_use && f.pins == 0);
  if (f.dirty.load(std::memory_order_relaxed) && !CanWriteBack(f)) {
    return Status::ResourceExhausted(
        "eviction of a dirty page whose image is not yet WAL-durable");
  }
  s.stats.evictions++;
  Bump(eviction_count_);
  if (f.dirty.load(std::memory_order_relaxed)) {
    DYNOPT_RETURN_IF_ERROR(store_->Write(f.id, f.data));
    meter_ptr()->physical_writes++;
    s.stats.writebacks++;
    Bump(writeback_count_);
    f.dirty.store(false, std::memory_order_relaxed);
  }
  s.table.erase(f.id);
  s.lru.erase(f.lru_pos);
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
  if (s.lru.empty()) {
    return Status::ResourceExhausted(
        "all buffer-pool frames in this shard are pinned");
  }
  // Coldest victim whose write-back the WAL ordering permits. When every
  // unpinned frame holds uncommitted dirty pages the caller must commit
  // (making them flushable) before the pool can make room.
  for (auto it = s.lru.rbegin(); it != s.lru.rend(); ++it) {
    const Frame& f = s.frames[*it];
    if (f.dirty.load(std::memory_order_relaxed) && !CanWriteBack(f)) {
      continue;
    }
    DYNOPT_RETURN_IF_ERROR(EvictFrame(s, *it));
    uint32_t frame = s.free_frames.back();
    s.free_frames.pop_back();
    return frame;
  }
  return Status::ResourceExhausted(
      "every unpinned frame in this shard holds an uncommitted dirty page; "
      "commit to make them flushable");
}

}  // namespace dynopt
