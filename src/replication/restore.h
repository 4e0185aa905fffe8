// Point-in-time recovery: rebuild a database file at any committed LSN
// from the archive's base image + sealed segments + current tail.
//
// The reconstruction is pure redo through crash recovery's RedoApplier
// (durability/recovery.h): start from the newest base image at or below
// the target (or an empty file), then replay every archived record with
// LSN in (base, target], promoting staged page images at each commit.
// Because images are full post-images, the result is byte-identical page
// content to the primary checkpointed at that commit — which is exactly
// what the PITR tests assert against a golden twin.
//
// Failure modes are typed and name the offender: a missing sealed segment
// is NotFound ("archive gap … [start, end] is unrecoverable"), a segment
// failing its manifest checksum is Corruption naming the segment, a target
// beyond archived history is NotFound naming the durable end.
//
// A restored file is a *detached clone*: its superblock timeline is
// stamped 0, so opening it with the archive attached fails the timeline
// fence by construction — a clone must never continue the archive's
// history (its state is intentionally in the past).

#ifndef DYNOPT_REPLICATION_RESTORE_H_
#define DYNOPT_REPLICATION_RESTORE_H_

#include <cstdint>
#include <string>

#include "replication/archive.h"
#include "util/status.h"

namespace dynopt {

struct RestoreReport {
  uint64_t restored_lsn = 0;  // last commit applied (<= requested target)
  uint64_t base_lsn = 0;      // base image used; 0 = replayed from genesis
  uint64_t source_timeline = 0;  // the archive timeline restored from
  uint64_t segments_applied = 0;
  uint64_t commits_applied = 0;  // commits past the base image
  uint64_t pages_applied = 0;    // distinct pages rewritten from images
};

/// Reconstructs a database file at `dest_path` (overwritten) containing
/// the archived history of `archive_dir` up to and including the last
/// commit at or below `target_lsn`.
Result<RestoreReport> RestoreToLsn(const std::string& archive_dir,
                                   uint64_t target_lsn,
                                   const std::string& dest_path);

}  // namespace dynopt

#endif  // DYNOPT_REPLICATION_RESTORE_H_
