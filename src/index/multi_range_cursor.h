// MultiRangeCursor: iterate a B+-tree over a RangeSet.
//
// Walks the normalized ranges in order, seeking once per range — the
// multi-range ("IN-list") index scan that the §7 OR-coverage extension
// compiles disjunctive restrictions into. Between-range gaps cost one
// descent, entries within a range cost the usual per-page pin.

#ifndef DYNOPT_INDEX_MULTI_RANGE_CURSOR_H_
#define DYNOPT_INDEX_MULTI_RANGE_CURSOR_H_

#include "index/btree.h"
#include "index/encoded_range.h"

namespace dynopt {

class MultiRangeCursor {
 public:
  /// `ranges` must outlive the cursor and stay unchanged while iterating.
  MultiRangeCursor(BTree* tree, const RangeSet* ranges)
      : ranges_(ranges), cursor_(tree->NewCursor()) {}
  MultiRangeCursor(MultiRangeCursor&&) = default;
  MultiRangeCursor& operator=(MultiRangeCursor&&) = default;

  /// Appends entries across all ranges, in key order, to `*out` until it
  /// holds `max` entries or every range is exhausted. Returns true when
  /// more entries may remain. Entries already in `*out` count toward
  /// `max`.
  Result<bool> NextBatch(size_t max, RidBatch* out);

 private:
  const RangeSet* ranges_;
  BTree::Cursor cursor_;
  size_t range_idx_ = 0;
  bool range_open_ = false;
  bool exhausted_ = false;
};

}  // namespace dynopt

#endif  // DYNOPT_INDEX_MULTI_RANGE_CURSOR_H_
