// CheckDatabase: full-database structural verification.
//
// Walks every persistent structure the engine owns — superblock, WAL LSN
// bookkeeping, the catalog page chain, each table's heap pages, and every
// B+-tree — and returns a typed report of findings instead of asserting.
// The checks are strictly stronger than what the runtime paths guard:
//
//  * catalog chain: magic/payload bounds, cycle detection, and agreement
//    with the chain the catalog loader is actually using;
//  * heap pages: HeapFile::CheckPage (bounded slot directory, every live
//    record inside the entry area), plus live-count vs record_count();
//  * B+-trees: NodeRef::CheckBytes on every node, uniform height, key
//    order within pages and across parent separator bounds (an internal
//    node's slot 0 empty or its lower bound), sibling-chain agreement with
//    recursive structure, exact subtree counts, minimum internal fanout,
//    and meta bookkeeping (entry/node/leaf/slot counts);
//  * RID cross-reference both directions: every index entry resolves to a
//    live heap record, no duplicates, and the index holds exactly as many
//    entries as the heap has live records;
//  * page ownership: no page claimed by two structures.
//
// Each finding is attributed to the page where the damage lives (the page
// holding the bad bytes, not merely where the walk noticed), which is what
// the seeded-mutation property tests assert on.
//
// CheckDatabase never hard-fails: a page that cannot be pinned (I/O error,
// unrepaired corruption) becomes a kUnreadablePage finding and the walk
// continues around it. It assumes no concurrent mutators (like Commit);
// concurrent read-only queries are safe.

#ifndef DYNOPT_INTEGRITY_CHECK_H_
#define DYNOPT_INTEGRITY_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/page.h"

namespace dynopt {

class BTree;
class BufferPool;
class Database;

enum class IntegrityFindingKind : uint8_t {
  kSuperblock,       // superblock disagrees with the store
  kWalState,         // WAL LSN / durability bookkeeping inconsistent
  kCatalogChain,     // catalog chain broken or diverging from the loaded one
  kPageOwnership,    // one page claimed by two structures
  kHeapPage,         // heap slot directory / record bounds broken
  kHeapBookkeeping,  // live records != table record_count
  kNodeBytes,        // node page fails NodeRef::CheckBytes
  kKeyOrder,         // keys out of order, or outside parent separator bounds
  kTreeShape,        // wrong level, cycle, underfull node, broken leaf chain
  kSubtreeCount,     // stored child count != actual subtree count
  kRidCrossRef,      // index RID <-> heap live-record mismatch
  kTreeBookkeeping,  // meta entry/node/leaf counts wrong
  kUnreadablePage,   // pin failed: I/O error or unrepairable corruption
};

const char* IntegrityFindingKindName(IntegrityFindingKind kind);

struct IntegrityFinding {
  IntegrityFindingKind kind = IntegrityFindingKind::kUnreadablePage;
  /// The page the damage is attributed to; kInvalidPageId for findings
  /// about bookkeeping that lives outside any page (superblock, WAL).
  PageId page = kInvalidPageId;
  /// The owning structure: "catalog", "heap:<table>", "index:<table>.<index>",
  /// "superblock", "wal", "store".
  std::string object;
  std::string detail;

  std::string ToString() const;
};

struct IntegrityCheckOptions {
  /// Also pin every allocated page no structure claimed (leaked pages) and
  /// report unreadable ones. Off by default: verify-on-
  /// open only vouches for reachable structures.
  bool scan_all_pages = false;
  /// Findings beyond this many are counted in dropped_findings instead of
  /// stored, bounding report size on grossly damaged databases.
  uint64_t max_findings = 256;
};

struct IntegrityReport {
  std::vector<IntegrityFinding> findings;
  uint64_t dropped_findings = 0;

  uint64_t pages_visited = 0;
  uint64_t tables_checked = 0;
  uint64_t indexes_checked = 0;
  uint64_t heap_pages_checked = 0;
  uint64_t nodes_checked = 0;
  uint64_t rid_entries_checked = 0;
  /// Pages the self-healing read path repaired while this check pinned
  /// them (delta of the integrity.repairs counter; 0 without metrics).
  uint64_t repaired_during_check = 0;

  bool clean() const { return findings.empty() && dropped_findings == 0; }
  bool HasFindingOn(PageId page) const;
  bool HasKind(IntegrityFindingKind kind) const;
  /// One-line verdict plus the first few findings — what Database::Open
  /// folds into its error message when verify-on-open fails.
  std::string Summary() const;
};

IntegrityReport CheckDatabase(Database* db,
                              const IntegrityCheckOptions& options = {});

/// The B+-tree checks CheckDatabase runs on every index, for one tree on
/// its own: node bytes, uniform height, key order and separator bounds,
/// fanout, subtree counts, the sibling chain, and the meta bookkeeping
/// (entry, node, leaf and slot counts). A bare tree's keys carry no RID
/// suffix, so the RID and heap cross-reference checks are skipped.
IntegrityReport CheckTree(BufferPool* pool, const BTree& tree);

}  // namespace dynopt

#endif  // DYNOPT_INTEGRITY_CHECK_H_
