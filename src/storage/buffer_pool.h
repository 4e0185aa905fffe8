// BufferPool: sharded, thread-safe page cache with per-shard LRU
// replacement and cost accounting.
//
// Every page access in the engine goes through Pin(): a hit charges one
// logical read, a miss additionally charges one physical read (plus a
// physical write if a dirty victim is evicted). This makes the cache-state
// dependence of retrieval cost — the paper's §3(c) uncertainty source — a
// first-class, measurable phenomenon.
//
// Concurrency model: the frame pool is partitioned into a power-of-two
// number of shards by PageId hash. Each shard owns its mutex, frames, page
// table, LRU links, and free list, so pins of unrelated pages never touch
// the same lock, and a fault's physical read (performed with its shard's
// lock released) never blocks traffic to other shards. Cost-meter and
// metrics charges are relaxed atomics. With multiple sessions running,
// cache interference stops being simulated (ScrambleCache) and becomes an
// emergent property of the shared pool — the paper's "asynchronous
// processes totally unrelated to a given retrieval" made real.
//
// Single-threaded determinism: shard assignment is a pure function of
// PageId and LRU is exact within each shard, so a serial run's
// hit/miss/eviction sequence is fully reproducible. Pools too small to
// benefit (fewer than 128 frames) default to one shard, which is
// bit-for-bit the classic single-LRU behavior.
//
// Nothing is allocated after construction: a shard's frame bookkeeping is
// a dense array apart from its page images, the LRU is a doubly linked
// list threaded through that array by frame index, and the page table is
// an open-addressing array sized once for the shard's frames. A pin, an
// unpin, a miss and an eviction only rewrite entries in place.

#ifndef DYNOPT_STORAGE_BUFFER_POOL_H_
#define DYNOPT_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "governance/query_context.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "util/cost_meter.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynopt {

class BufferPool;

/// Last-resort recovery hook for pages whose store read fails with
/// Corruption (bad checksum / mangled frame). When one is attached, Pin()
/// routes the failure here before giving up: a successful Repair fills
/// `*out` with the reconstructed image (and typically heals the store copy
/// as a side effect) and the pin proceeds as if the read had succeeded.
/// An implementation that cannot reconstruct the page returns a typed
/// error — conventionally Corruption carrying a "quarantined" marker — and
/// that status is what the pinning query observes.
///
/// Repair() runs on the pinning thread with no pool locks held (the frame
/// is a pinned "loading" placeholder), so it may perform I/O, but it must
/// be safe to call concurrently from many threads.
class PageRepairer {
 public:
  virtual ~PageRepairer() = default;
  virtual Status Repair(PageId id, const Status& cause, PageData* out) = 0;
};

/// RAII pin on a buffered page. While alive, the page stays in memory and
/// `data()` is stable. Mark dirty before mutation so eviction flushes it.
/// A guard may be released from any thread; the data it exposes must not
/// be written by one thread while another reads the same page.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t shard, uint32_t frame, PageId id,
            uint8_t* data)
      : pool_(pool), data_(data), shard_(shard), frame_(frame), id_(id) {}
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const uint8_t* data() const {
    assert(valid());
    return data_;
  }
  uint8_t* mutable_data() {  // implies MarkDirty()
    MarkDirty();
    return data_;
  }
  void MarkDirty();

  /// Drops the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint8_t* data_ = nullptr;  // the frame's page image
  uint32_t shard_ = 0;
  uint32_t frame_ = 0;
  PageId id_ = kInvalidPageId;
};

class BufferPool {
 public:
  /// Per-shard tallies, maintained under the shard lock; the concurrent
  /// workload driver reads these to report per-shard hit rates.
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
  };

  /// Bounded retry with exponential backoff for *transient* store read
  /// faults (IOError). Corruption is never retried — a bad checksum does
  /// not heal — but it is routed through the attached PageRepairer (if
  /// any) before the pin fails. The shard lock is released across the read
  /// and its backoff sleeps (the faulting frame is published as a "loading"
  /// placeholder), so a faulty page's retries stall only threads pinning
  /// that same page — never unrelated traffic that shares its shard.
  /// Backoff sleeps are (a) jittered — a seeded hash of (page, attempt)
  /// spreads concurrent retriers of one hot page so they do not re-arrive
  /// in lockstep — and (b) interruptible: when the pinning thread runs
  /// under a QueryContext (ScopedQueryContext), Cancel() or deadline expiry
  /// wakes the sleep and the pin fails with the typed governance status
  /// instead of serving out the full backoff on a dead query.
  struct IoRetryPolicy {
    uint32_t max_retries = 3;          ///< extra attempts after the first
    uint32_t base_backoff_micros = 50;
    uint32_t max_backoff_micros = 2000;
    /// Each sleep is scaled by a deterministic factor in
    /// [1 - jitter_fraction, 1 + jitter_fraction]. 0 recovers the exact
    /// exponential ladder.
    double jitter_fraction = 0.25;
  };

  /// `capacity` is the total number of page frames; `meter` (optional)
  /// is the shared meter. `shards` must be a power of two (rounded
  /// down otherwise); 0 picks automatically: one shard per 64 frames,
  /// capped at 16, minimum 1 — so small deterministic test pools keep the
  /// classic single-LRU behavior. The pool does not own the store or meter.
  BufferPool(PageStore* store, size_t capacity, CostMeter* meter = nullptr,
             size_t shards = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Pins page `id`, faulting it from the store if needed. Thread-safe.
  /// Transient store IOErrors are retried per the IoRetryPolicy; the final
  /// error (if any) carries the page id and attempt count.
  Result<PageGuard> Pin(PageId id);

  /// Allocates a fresh zeroed page in the store and pins it dirty. Fails
  /// typed (NotSupported) on a read-only pool — see SetReadOnly().
  Result<PageGuard> NewPage();

  /// Read-only guard rail for warm standbys: while set, NewPage() fails
  /// typed instead of allocating. A standby's store watermark must move
  /// only through applied redo; heap, index or catalog growth there would
  /// silently desynchronize the page count from the primary's commits.
  /// Pin() stays available — reads (and read-path repair) are the point.
  void SetReadOnly(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  void set_retry_policy(const IoRetryPolicy& policy) { retry_ = policy; }
  const IoRetryPolicy& retry_policy() const { return retry_; }

  /// Attaches the process-wide retry token bucket (null detaches). While
  /// attached, a pin must hold a token across each backoff sleep; when none
  /// is available the pin stops retrying and fails typed immediately
  /// (governance.retry_denied counts these) — a slow device cannot turn
  /// every session into a synchronized retry storm. Not owned.
  void set_retry_budget(RetryBudget* budget) { retry_budget_ = budget; }
  RetryBudget* retry_budget() const { return retry_budget_; }

  /// Attaches the Corruption recovery hook (null detaches). Not owned; the
  /// repairer must outlive every Pin() that may fault. Retries never touch
  /// it — only a final Corruption verdict from the store is routed here.
  void set_repairer(PageRepairer* repairer) { repairer_ = repairer; }
  PageRepairer* repairer() const { return repairer_; }

  /// Total pins currently held across all shards (test support: a cleanly
  /// unwound query leaves this at zero).
  size_t PinnedPages() const;

  /// Writes back all dirty unpinned pages (retaining cache contents).
  /// Pinned pages are skipped — their holder may be mid-mutation; they stay
  /// dirty for eviction or a later FlushAll once released. Returns how
  /// many committed dirty pages it skipped that way: the store lacks their
  /// newest committed image, which only the WAL holds.
  Result<size_t> FlushAll();

  /// Evicts every unpinned page (flushing dirty ones): a cold cache.
  Status EvictAll();

  /// Evicts ~`fraction` of the unpinned cached pages, coldest-first within
  /// each shard — emulating the LRU pressure of unrelated concurrent
  /// activity (§3c) in O(evicted) time. Returns how many pages were
  /// actually evicted. `rng` only randomizes the rounding of each shard's
  /// fractional quota.
  Result<size_t> ScrambleCache(Rng& rng, double fraction);

  // Durability support ----------------------------------------------------
  //
  // With a write-ahead log underneath, a dirty page must not reach the
  // data file before its image is durable in the log. The pool enforces
  // that ordering with epochs: every MarkDirty stamps the frame with the
  // current mutation epoch; a commit snapshots the dirty set at an epoch
  // boundary, logs it, and then declares that epoch flushable. Frames
  // dirtied after the boundary stay pinned to memory (not evictable, not
  // flushable) until a later commit covers them.

  /// Turns the ordering on (off by default — volatile stores flush freely).
  /// Called once by file-backed databases before any mutation.
  void EnableWalOrdering() {
    wal_ordering_ = true;
    flushable_epoch_.store(0, std::memory_order_relaxed);
  }
  bool wal_ordering() const { return wal_ordering_; }

  /// Stamps a snapshot boundary and copies every dirty page (pinned or
  /// not) into `*out`. Returns the boundary epoch to hand to
  /// MarkCommittedUpTo once the images are durable in the log. Must not
  /// race mutators (the engine is single-writer; see README).
  uint64_t SnapshotDirtyPages(
      std::vector<std::pair<PageId, PageData>>* out);

  /// Declares every mutation up to `epoch` log-durable, unlocking those
  /// frames for write-back and eviction.
  void MarkCommittedUpTo(uint64_t epoch);

  size_t capacity() const { return capacity_; }
  size_t cached_pages() const;
  /// The shared meter, which work outside every installed meter charges
  /// and each outermost ScopedCostMeter folds into.
  const CostMeter& meter() const { return *meter_; }
  CostMeter* shared_meter() { return meter_; }
  /// The meter a charge made on this thread lands in (CurrentCostMeter).
  CostMeter* meter_ptr() { return CurrentCostMeter(meter_); }
  PageStore* store() { return store_; }

  size_t shard_count() const { return shards_.size(); }
  /// Which shard owns `id` (pure function of the id — deterministic).
  size_t ShardOf(PageId id) const;
  /// Snapshot of one shard's counters (takes that shard's lock).
  ShardStats shard_stats(size_t shard) const;
  /// Sum of all shards' counters.
  ShardStats TotalStats() const;

  /// Structural self-check (frames/table/LRU/free-list consistency and
  /// pin counts); test support. Takes every shard lock in turn.
  Status CheckInvariants() const;

  /// Attaches hit/miss/eviction/writeback counters and publishes `registry`
  /// to the components built on this pool (B-trees, steppers, Jscan attach
  /// their own counters through metrics() at construction). Null detaches;
  /// detached instrumentation sites cost one predictable branch. Attach
  /// before creating dependent components — they bind at construction.
  void AttachMetrics(MetricsRegistry* registry);
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  friend class PageGuard;

  /// Ends an LRU list and marks an empty page-table slot.
  static constexpr uint32_t kNoFrame = 0xffffffffu;

  /// A frame's bookkeeping. The images live in an array of their own, so
  /// a pin touches this small record and not the 8 KiB page beside it.
  struct FrameMeta {
    // Mutation epoch of the latest MarkDirty; a dirty frame may be written
    // back only once flushable_epoch_ has caught up to it (WAL-before-data).
    std::atomic<uint64_t> dirty_epoch{0};
    PageId id = kInvalidPageId;
    uint32_t pins = 0;
    // LRU neighbours (kNoFrame ends the list); valid iff pins == 0 &&
    // in_use. prev is toward the most recent end.
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
    // Atomic so concurrent guard holders may MarkDirty() without the shard
    // lock; ordering rides on the shard mutex (set while pinned, read by
    // flush/eviction only after the pin is released).
    std::atomic<bool> dirty{false};
    bool in_use = false;
    // True while the owning Pin() reads the page from the store with the
    // shard lock released; the frame is pinned (never evicted) and other
    // pins of the same page wait on the shard condvar. Guarded by s.mu.
    bool loading = false;
  };

  /// PageId -> frame index: linear probing over a power-of-two array of
  /// at least twice the shard's frames, so a probe always ends at an empty
  /// slot. Erase shifts the displaced entries back instead of leaving
  /// tombstones; the table never rehashes or allocates after construction.
  class PageTable {
   public:
    explicit PageTable(size_t frames);
    /// The frame caching `id`, or kNoFrame.
    uint32_t Find(PageId id) const;
    /// `id` must be absent.
    void Insert(PageId id, uint32_t frame);
    /// `id` must be present.
    void Erase(PageId id);
    size_t size() const { return size_; }
    /// Counts the occupied slots and checks each is found from its home
    /// slot; test support.
    Status Check() const;

   private:
    struct Slot {
      PageId id = kInvalidPageId;
      uint32_t frame = kNoFrame;  // kNoFrame = empty
    };
    size_t Home(PageId id) const;
    /// The slot holding `id`, or the empty slot that ends its probe.
    size_t Probe(PageId id) const;

    std::unique_ptr<Slot[]> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
  };

  struct Shard {
    explicit Shard(uint32_t frames);
    /// Links unpinned `frame` in as the most recent.
    void LruPushFront(uint32_t frame);
    void LruUnlink(uint32_t frame);

    mutable std::mutex mu;
    std::condition_variable cv;  // signaled when a loading frame settles
    uint32_t frame_count = 0;
    std::unique_ptr<FrameMeta[]> meta;   // fixed at construction
    std::unique_ptr<PageData[]> images;  // parallel to meta
    std::vector<uint32_t> free_frames;   // capacity frame_count
    PageTable table;
    // Only unpinned in-use frames; head = most recent, tail = coldest.
    uint32_t lru_head = kNoFrame;
    uint32_t lru_tail = kNoFrame;
    size_t lru_size = 0;
    ShardStats stats;
  };

  void Unpin(uint32_t shard, uint32_t frame);
  /// True when `f` (if dirty) may be written back to the store under the
  /// WAL-before-data rule. Always true when wal_ordering_ is off.
  bool CanWriteBack(const FrameMeta& f) const {
    return !wal_ordering_ ||
           f.dirty_epoch.load(std::memory_order_relaxed) <=
               flushable_epoch_.load(std::memory_order_relaxed);
  }
  /// Requires s.mu held.
  Status EvictFrame(Shard& s, uint32_t frame);
  /// Finds a frame to (re)use: a free frame or the LRU unpinned victim.
  /// Requires s.mu held.
  Result<uint32_t> GrabFrame(Shard& s);

  PageStore* store_;
  size_t capacity_;
  uint32_t shard_shift_;  // ShardOf = hash(id) >> shard_shift_ (64 = 1 shard)
  bool wal_ordering_ = false;
  bool read_only_ = false;  // see SetReadOnly()
  // MarkDirty stamps frames with mutation_epoch_; SnapshotDirtyPages bumps
  // it; MarkCommittedUpTo advances flushable_epoch_ toward it.
  std::atomic<uint64_t> mutation_epoch_{1};
  std::atomic<uint64_t> flushable_epoch_{~0ull};
  CostMeter own_meter_;
  CostMeter* meter_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* hit_count_ = nullptr;
  Counter* miss_count_ = nullptr;
  Counter* eviction_count_ = nullptr;
  Counter* writeback_count_ = nullptr;
  Counter* io_retry_count_ = nullptr;
  Counter* io_backoff_micros_ = nullptr;
  Counter* io_fault_count_ = nullptr;
  Counter* retry_denied_count_ = nullptr;
  Counter* repair_count_ = nullptr;
  IoRetryPolicy retry_;
  RetryBudget* retry_budget_ = nullptr;
  PageRepairer* repairer_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The jittered backoff for retry `attempt` (1-based) of a pin of `id`:
/// base << (attempt-1), capped at max, scaled by a deterministic seeded
/// factor in [1 - jitter_fraction, 1 + jitter_fraction]. Pure function —
/// exposed so tests can pin the exact schedule.
uint64_t JitteredBackoffMicros(const BufferPool::IoRetryPolicy& policy,
                               PageId id, uint32_t attempt);

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_BUFFER_POOL_H_
