#include "index/multi_range_cursor.h"

namespace dynopt {

Result<bool> MultiRangeCursor::NextBatch(size_t max, RidBatch* out) {
  if (exhausted_) return false;
  while (out->size() < max) {
    if (range_idx_ >= ranges_->ranges().size()) {
      cursor_.Close();
      exhausted_ = true;
      return false;
    }
    const EncodedRange& range = ranges_->ranges()[range_idx_];
    if (!range_open_) {
      DYNOPT_RETURN_IF_ERROR(cursor_.Seek(range.lo));
      range_open_ = true;
    }
    bool bound_hit = false;
    DYNOPT_ASSIGN_OR_RETURN(
        bool more,
        cursor_.NextBatch(range.hi, max - out->size(), out, &bound_hit));
    if (more) continue;  // batch filled; the while condition ends the loop
    range_idx_++;
    range_open_ = false;
    if (!bound_hit) {
      // Tree itself ended: later ranges hold nothing (ranges ascend).
      cursor_.Close();
      exhausted_ = true;
      return false;
    }
  }
  return true;
}

}  // namespace dynopt
