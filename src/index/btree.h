// B+-tree index.
//
// A page-based B+-tree over order-preserving byte-string keys with Rid
// payloads. Beyond the usual insert/delete/scan, the tree exposes the three
// estimation primitives the dynamic optimizer builds on:
//
//  * EstimateRange — the paper's §5 "descent to split node" hierarchical-
//    histogram estimate `RangeRIDs ≈ k·f^(l−1)`: O(height) page reads,
//    always up to date, exact for ranges that resolve inside one leaf
//    (including the crucial empty-range shortcut).
//  * CountRange / RankOfKey — exact range cardinality in O(height) using
//    the per-child subtree counts (the "ranked" structure of [Ant92]).
//  * SampleRange / SampleAcceptReject — uniform random leaf entries, via
//    ranked selection (cheap, never rejects) or the Olken-Rotem
//    acceptance/rejection baseline [OlRo89].
//
// Keys must be unique: duplicate column values are handled one layer up by
// suffixing the RID onto the encoded key (the standard secondary-index
// technique), which keeps every separator a strict divider across splits.
// Deletion is lazy about underflow: nodes may become
// arbitrarily underfull (empty leaves are skipped by cursors); this trades
// worst-case space for simplicity and matches the read-dominated workloads
// the retrieval experiments run. CheckTree (integrity/check.h) checks
// structural integrity.

#ifndef DYNOPT_INDEX_BTREE_H_
#define DYNOPT_INDEX_BTREE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "index/encoded_range.h"
#include "index/node.h"
#include "index/rid_batch.h"
#include "storage/buffer_pool.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynopt {

/// A materialized index entry.
struct IndexEntry {
  std::string key;
  Rid rid;
};

/// The tree's structural bookkeeping, persisted by the catalog so a
/// reopened tree rebinds to its pages without a rebuild. Everything here
/// is derivable from the pages (the integrity checker recomputes it), but
/// persisting it keeps reopen O(1).
struct BTreeMeta {
  PageId root = kInvalidPageId;
  uint32_t height = 1;
  uint64_t entry_count = 0;
  uint64_t node_count = 0;
  uint64_t leaf_count = 0;
  uint64_t slot_sum = 0;
  uint64_t max_fanout_seen = 1;
};

/// Result of the §5 descent-to-split-node estimation.
struct RangeEstimate {
  double estimated_rids = 0;  // k * f^(l-1)
  uint32_t split_level = 1;   // l; 1 = resolved at a leaf
  uint64_t k = 0;             // spanning children minus one (or exact count)
  double fanout_used = 0;     // f
  bool exact = false;         // true when resolved at leaf level
  uint64_t descent_pages = 0; // pages pinned by the estimation descent
};

class BTree {
 public:
  /// Creates an empty tree (a single empty leaf as root).
  static Result<std::unique_ptr<BTree>> Create(BufferPool* pool);

  /// Rebinds a tree to its stored pages from persisted metadata (catalog
  /// reopen); no page is touched until the first operation.
  static std::unique_ptr<BTree> Open(BufferPool* pool, const BTreeMeta& meta);

  /// The metadata Open() needs — what the catalog persists per index.
  BTreeMeta meta() const;

  /// Inserts an entry; InvalidArgument when `key` is already present.
  Status Insert(std::string_view key, Rid rid);

  /// Removes the entry equal to `key` (NotFound if absent).
  Status Delete(std::string_view key);

  /// §5 estimation by descent to the split node.
  Result<RangeEstimate> EstimateRange(const EncodedRange& range);

  /// Sum of per-range descents over a whole RangeSet (the OR-coverage
  /// extension): exact iff every component resolved at a leaf.
  Result<RangeEstimate> EstimateRanges(const RangeSet& set);

  /// Exact number of entries in `range`, via subtree counts (O(height)).
  Result<uint64_t> CountRange(const EncodedRange& range);

  /// Number of entries with key strictly below `key`.
  Result<uint64_t> RankOfKey(std::string_view key);

  /// Uniform random entry within `range`; nullopt when the range is empty.
  Result<std::optional<IndexEntry>> SampleRange(const EncodedRange& range,
                                                Rng& rng);

  /// One Olken-Rotem acceptance/rejection trial over the whole tree;
  /// nullopt means the trial was rejected (caller retries).
  Result<std::optional<IndexEntry>> SampleAcceptReject(Rng& rng);

  /// Forward scan cursor. Not stable across concurrent tree mutation.
  /// Holds a pin on its current leaf, so iterating entries within one page
  /// costs key comparisons only — buffer charges accrue per page, which is
  /// what makes index scans "typically 10-100 times cheaper" than record
  /// fetches (§6).
  class Cursor {
   public:
    explicit Cursor(BTree* tree) : tree_(tree) {}
    Cursor(Cursor&&) = default;
    Cursor& operator=(Cursor&&) = default;

    /// Positions at the first entry with key >= `key`.
    Status Seek(std::string_view key);
    Status SeekFirst() { return Seek(std::string_view()); }

    /// Appends up to `max` entries to `*out` and advances past them,
    /// copying a whole leaf's qualifying entries per page pin. Stops early
    /// when a key reaches `hi` (exclusive encoded upper bound; empty =
    /// unbounded), setting `*bound_hit`. Keys are copied only when `out`
    /// collects them. Key compares are charged to the meter once per call.
    /// Returns true when the batch filled and more entries may remain;
    /// false when the scan is over (tree end or bound hit).
    Result<bool> NextBatch(std::string_view hi, size_t max, RidBatch* out,
                           bool* bound_hit);

    /// Drops the leaf pin and parks the cursor at end; Seek() reopens it.
    /// Callers that stop a scan early (range upper bound reached) must
    /// close, or the pin outlives the scan.
    void Close() {
      guard_.Release();
      exhausted_ = true;
    }

   private:
    BTree* tree_ = nullptr;
    PageId leaf_ = kInvalidPageId;
    PageGuard guard_;  // pin on `leaf_` while positioned
    uint16_t pos_ = 0;
    bool exhausted_ = true;
  };

  Cursor NewCursor() { return Cursor(this); }

  uint64_t entry_count() const { return entry_count_; }
  uint32_t height() const { return height_; }
  uint64_t node_count() const { return node_count_; }
  uint64_t leaf_count() const { return leaf_count_; }
  /// Average entries per node across all nodes (the estimator's f).
  double AvgFanout() const;

 private:
  explicit BTree(BufferPool* pool) : pool_(pool) {}

  struct PathStep {
    PageId page;
    uint16_t child_idx;
  };

  struct SplitResult {
    bool split = false;
    std::string separator;
    PageId right_page = kInvalidPageId;
    uint64_t left_count = 0;
    uint64_t right_count = 0;
  };

  /// Walks from the root to the leaf that owns `key`, filling `path` with
  /// the internal steps (root first).
  Result<PageId> DescendToLeaf(std::string_view key,
                               std::vector<PathStep>* path);

  Result<SplitResult> InsertIntoLeaf(PageId leaf_id, std::string_view key,
                                     Rid rid);
  /// Inserts a separator into internal node `node_id` at `pos`, splitting
  /// the node if necessary.
  Result<SplitResult> InsertSeparator(PageId node_id, uint16_t pos,
                                      std::string_view sep, PageId child,
                                      uint64_t child_count);
  Status GrowRoot(const SplitResult& sr);

  BufferPool* pool_;
  // Registry counters, bound at Create() from the pool's attached registry
  // (null when the pool has none; Bump is then a single branch). Shared
  // across all trees on one pool — the registry aggregates by name.
  Counter* m_descents_ = nullptr;
  Counter* m_node_reads_ = nullptr;
  Counter* m_estimates_ = nullptr;
  Counter* m_sample_probes_ = nullptr;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;
  uint64_t entry_count_ = 0;
  uint64_t node_count_ = 0;
  uint64_t leaf_count_ = 0;
  uint64_t slot_sum_ = 0;       // total entries across all nodes
  uint64_t max_fanout_seen_ = 1;
};

}  // namespace dynopt

#endif  // DYNOPT_INDEX_BTREE_H_
