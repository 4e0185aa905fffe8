#include "integrity/check.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "catalog/database.h"
#include "catalog/index.h"
#include "catalog/table.h"
#include "durability/file_page_store.h"
#include "durability/wal.h"
#include "index/btree.h"
#include "index/node.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace dynopt {

const char* IntegrityFindingKindName(IntegrityFindingKind kind) {
  switch (kind) {
    case IntegrityFindingKind::kSuperblock: return "superblock";
    case IntegrityFindingKind::kWalState: return "wal-state";
    case IntegrityFindingKind::kCatalogChain: return "catalog-chain";
    case IntegrityFindingKind::kPageOwnership: return "page-ownership";
    case IntegrityFindingKind::kHeapPage: return "heap-page";
    case IntegrityFindingKind::kHeapBookkeeping: return "heap-bookkeeping";
    case IntegrityFindingKind::kNodeBytes: return "node-bytes";
    case IntegrityFindingKind::kKeyOrder: return "key-order";
    case IntegrityFindingKind::kTreeShape: return "tree-shape";
    case IntegrityFindingKind::kSubtreeCount: return "subtree-count";
    case IntegrityFindingKind::kRidCrossRef: return "rid-crossref";
    case IntegrityFindingKind::kTreeBookkeeping: return "tree-bookkeeping";
    case IntegrityFindingKind::kUnreadablePage: return "unreadable-page";
  }
  return "unknown";
}

std::string IntegrityFinding::ToString() const {
  std::string s(IntegrityFindingKindName(kind));
  if (page != kInvalidPageId) s += " page " + std::to_string(page);
  s += " [" + object + "]: " + detail;
  return s;
}

bool IntegrityReport::HasFindingOn(PageId page) const {
  for (const IntegrityFinding& f : findings) {
    if (f.page == page) return true;
  }
  return false;
}

bool IntegrityReport::HasKind(IntegrityFindingKind kind) const {
  for (const IntegrityFinding& f : findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

std::string IntegrityReport::Summary() const {
  std::ostringstream out;
  if (clean()) {
    out << "clean: " << pages_visited << " pages, " << tables_checked
        << " tables, " << indexes_checked << " indexes, " << nodes_checked
        << " nodes, " << rid_entries_checked << " index entries verified";
    return out.str();
  }
  out << findings.size() + dropped_findings << " integrity findings";
  if (dropped_findings > 0) out << " (" << dropped_findings << " dropped)";
  constexpr size_t kShown = 5;
  for (size_t i = 0; i < findings.size() && i < kShown; ++i) {
    out << "; " << findings[i].ToString();
  }
  if (findings.size() > kShown) {
    out << "; ... " << findings.size() - kShown << " more";
  }
  return out.str();
}

namespace {

struct Checker {
  Database* db;
  BufferPool* pool;
  IntegrityCheckOptions opts;
  IntegrityReport report;
  // Which structure owns each page; duplicate claims are findings.
  std::unordered_map<PageId, std::string> owners;

  void Add(IntegrityFindingKind kind, PageId page, std::string object,
           std::string detail) {
    if (report.findings.size() >= opts.max_findings) {
      report.dropped_findings++;
      return;
    }
    report.findings.push_back(
        {kind, page, std::move(object), std::move(detail)});
  }

  void Claim(PageId id, const std::string& owner) {
    auto [it, inserted] = owners.emplace(id, owner);
    if (!inserted && it->second != owner) {
      Add(IntegrityFindingKind::kPageOwnership, id, owner,
          "page is already claimed by " + it->second);
    }
  }

  /// Pins `id` and copies its bytes out, so the walk never piles up pins
  /// (and recursion depth never multiplies frame usage). Pin failures are
  /// the caller's finding to record.
  Status Snapshot(PageId id, PageData* out) {
    Result<PageGuard> guard = pool->Pin(id);
    if (!guard.ok()) return guard.status();
    std::memcpy(out->data(), guard.value().data(), kPageSize);
    report.pages_visited++;
    return Status::OK();
  }
};

// ---- B+-tree walk ---------------------------------------------------------

struct TreeWalk {
  Checker* c;
  std::string object;
  // Live heap RIDs (packed) for the forward cross-reference; null for a
  // bare tree, whose keys carry no RID suffix.
  const std::unordered_set<uint64_t>* live;
  std::unordered_set<uint64_t> seen_rids{};
  std::unordered_set<PageId> visited{};
  uint64_t slots = 0;  // entries summed over every node
  // (leaf page, its next_leaf) in recursive key order — checked against
  // the sibling chain after the walk.
  std::vector<std::pair<PageId, PageId>> leaves{};

  /// Verifies the subtree rooted at `id` and returns its leaf-entry count,
  /// or nullopt when damage below made the count meaningless. `lo` is the
  /// inclusive lower separator bound; `hi` (null = +inf) the exclusive
  /// upper bound. Findings are attributed to the page holding the bad
  /// bytes: a wrong separator or child count is the parent's finding, a
  /// bad level or key order the child's.
  std::optional<uint64_t> CheckNode(PageId id, uint8_t expected_level,
                                    const std::string& lo,
                                    const std::string* hi, bool is_root) {
    if (!visited.insert(id).second) {
      c->Add(IntegrityFindingKind::kTreeShape, id, object,
             "node reached twice (cycle or shared child)");
      return std::nullopt;
    }
    PageData data;
    Status s = c->Snapshot(id, &data);
    if (!s.ok()) {
      c->Add(IntegrityFindingKind::kUnreadablePage, id, object, s.message());
      return std::nullopt;
    }
    const uint8_t* p = data.data();
    Status bytes = NodeRef::CheckBytes(p, id);
    if (!bytes.ok()) {
      c->Add(IntegrityFindingKind::kNodeBytes, id, object, bytes.message());
      return std::nullopt;
    }
    c->report.nodes_checked++;
    NodeRef node(const_cast<uint8_t*>(p));
    if (node.level() != expected_level) {
      c->Add(IntegrityFindingKind::kTreeShape, id, object,
             "level " + std::to_string(node.level()) + " where the tree needs " +
                 std::to_string(expected_level) + " (non-uniform height)");
      return std::nullopt;
    }
    const uint16_t n = node.count();
    slots += n;

    // In-page key order is strict (unique-key contract). The internal
    // sentinel at slot 0 is empty or the subtree's lower bound, which every
    // later key exceeds, so the same loop covers both node types.
    for (uint16_t i = 0; i + 1 < n; ++i) {
      if (node.Key(i) >= node.Key(i + 1)) {
        c->Add(IntegrityFindingKind::kKeyOrder, id, object,
               "keys out of order at slots " + std::to_string(i) + "/" +
                   std::to_string(i + 1));
      }
    }
    // Separator bounds from the parent. Slot 0 of an internal node is the
    // sentinel, not a real key; everything else must land in [lo, hi).
    for (uint16_t i = node.is_leaf() ? 0 : 1; i < n; ++i) {
      std::string_view key = node.Key(i);
      if (key < lo || (hi != nullptr && key >= *hi)) {
        c->Add(IntegrityFindingKind::kKeyOrder, id, object,
               "slot " + std::to_string(i) +
                   " escapes the parent separator bounds");
        break;  // one finding per node; the rest is usually the same tear
      }
    }

    if (node.is_leaf()) {
      for (uint16_t i = 0; live != nullptr && i < n; ++i) {
        c->report.rid_entries_checked++;
        Result<Rid> rid = SecondaryIndex::SplitRidSuffix(node.Key(i));
        if (!rid.ok()) {
          c->Add(IntegrityFindingKind::kRidCrossRef, id, object,
                 "slot " + std::to_string(i) +
                     " has a malformed RID suffix: " + rid.status().message());
          continue;
        }
        uint64_t packed = rid.value().ToU64();
        if (live->count(packed) == 0) {
          c->Add(IntegrityFindingKind::kRidCrossRef, id, object,
                 "slot " + std::to_string(i) + " points at rid (" +
                     std::to_string(rid.value().page) + "," +
                     std::to_string(rid.value().slot) +
                     ") which is not a live heap record");
        } else if (!seen_rids.insert(packed).second) {
          c->Add(IntegrityFindingKind::kRidCrossRef, id, object,
                 "slot " + std::to_string(i) + " duplicates rid (" +
                     std::to_string(rid.value().page) + "," +
                     std::to_string(rid.value().slot) + ")");
        }
      }
      leaves.emplace_back(id, node.next_leaf());
      return static_cast<uint64_t>(n);
    }

    // Internal node. Splits always leave at least two children; only the
    // root may narrow to one (and a root leaf handles the empty tree).
    if (n < (is_root ? 1 : 2)) {
      c->Add(IntegrityFindingKind::kTreeShape, id, object,
             std::string(is_root ? "root" : "non-root") +
                 " internal node with fanout " + std::to_string(n));
    }
    if (n > 0 && !node.Key(0).empty() && node.Key(0) != lo) {
      c->Add(IntegrityFindingKind::kKeyOrder, id, object,
             "slot 0 is neither empty nor the subtree's lower bound");
    }
    uint64_t total = 0;
    bool complete = true;
    for (uint16_t i = 0; i < n; ++i) {
      std::string child_lo = i == 0 ? lo : std::string(node.Key(i));
      std::string next_sep;
      const std::string* child_hi = hi;
      if (i + 1 < n) {
        next_sep = std::string(node.Key(i + 1));
        child_hi = &next_sep;
      }
      std::optional<uint64_t> sub =
          CheckNode(node.ChildId(i), expected_level - 1, child_lo, child_hi,
                    /*is_root=*/false);
      if (!sub.has_value()) {
        complete = false;
        continue;
      }
      if (*sub != node.ChildCount(i)) {
        c->Add(IntegrityFindingKind::kSubtreeCount, id, object,
               "entry " + std::to_string(i) + " records " +
                   std::to_string(node.ChildCount(i)) +
                   " leaf entries under child " +
                   std::to_string(node.ChildId(i)) + " but the subtree holds " +
                   std::to_string(*sub));
      }
      total += *sub;
    }
    if (!complete) return std::nullopt;
    return total;
  }

  /// Walks the tree `meta` describes, then checks the sibling chain and
  /// the meta bookkeeping against what the walk found. Returns false when
  /// damage kept the walk from covering the whole tree.
  bool Walk(const BTreeMeta& meta) {
    std::optional<uint64_t> total = CheckNode(
        meta.root, static_cast<uint8_t>(meta.height), /*lo=*/std::string(),
        /*hi=*/nullptr, /*is_root=*/true);

    // Sibling chain vs the recursive structure: leaf i links to leaf i+1,
    // and the last leaf terminates. A wrong link is the finding of the
    // leaf holding it.
    for (size_t i = 0; i < leaves.size(); ++i) {
      PageId expected =
          i + 1 < leaves.size() ? leaves[i + 1].first : kInvalidPageId;
      if (leaves[i].second != expected) {
        c->Add(IntegrityFindingKind::kTreeShape, leaves[i].first, object,
               "next_leaf points at " + std::to_string(leaves[i].second) +
                   " but key order puts " + std::to_string(expected) +
                   " next");
      }
    }

    // Bookkeeping only means something when the walk covered the whole
    // tree.
    if (!total.has_value()) return false;
    auto check_count = [&](const char* what, uint64_t recorded,
                           uint64_t found) {
      if (recorded == found) return;
      c->Add(IntegrityFindingKind::kTreeBookkeeping, meta.root, object,
             "meta records " + std::to_string(recorded) + " " + what +
                 " but the walk found " + std::to_string(found));
    };
    check_count("entries", meta.entry_count, *total);
    check_count("nodes", meta.node_count, visited.size());
    check_count("leaves", meta.leaf_count, leaves.size());
    check_count("slots", meta.slot_sum, slots);
    return true;
  }
};

void CheckSuperblockAndWal(Checker* c) {
  FilePageStore* store = c->db->file_store();
  Superblock sb = store->superblock();
  if (sb.page_count > store->page_count()) {
    c->Add(IntegrityFindingKind::kSuperblock, kInvalidPageId, "superblock",
           "superblock records " + std::to_string(sb.page_count) +
               " pages but the store watermark is " +
               std::to_string(store->page_count()));
  }

  Wal* wal = c->db->wal();
  uint64_t max_lsn = 0;
  uint64_t max_commit_lsn = 0;
  WalReplayStats stats;
  Status s = wal->Replay(
      [&](const WalRecordView& r) {
        max_lsn = std::max(max_lsn, r.lsn);
        if (r.type == WalRecordType::kCommit) {
          max_commit_lsn = std::max(max_commit_lsn, r.lsn);
        }
        return Status::OK();
      },
      &stats);
  if (!s.ok()) {
    c->Add(IntegrityFindingKind::kWalState, kInvalidPageId, "wal",
           "replay failed: " + s.message());
    return;
  }
  // Open() truncates/ignores any crash-torn tail and recovery resets the
  // log, so a torn tail seen here arose on this process's watch — the
  // signature of a failed (poisoned) flush.
  if (stats.torn_tail) {
    c->Add(IntegrityFindingKind::kWalState, kInvalidPageId, "wal",
           "log carries a torn tail past the stable prefix");
  }
  if (max_lsn >= wal->next_lsn()) {
    c->Add(IntegrityFindingKind::kWalState, kInvalidPageId, "wal",
           "log holds lsn " + std::to_string(max_lsn) +
               " but next_lsn is only " + std::to_string(wal->next_lsn()));
  }
  if (max_commit_lsn > wal->durable_lsn()) {
    c->Add(IntegrityFindingKind::kWalState, kInvalidPageId, "wal",
           "commit lsn " + std::to_string(max_commit_lsn) +
               " is on disk past durable_lsn " +
               std::to_string(wal->durable_lsn()));
  }
}

void CheckCatalogChain(Checker* c) {
  std::vector<PageId> chain;
  std::unordered_set<PageId> seen;
  PageId cur = kCatalogRootPage;
  while (cur != kInvalidPageId) {
    if (!seen.insert(cur).second) {
      c->Add(IntegrityFindingKind::kCatalogChain, cur, "catalog",
             "chain revisits page (cycle)");
      break;
    }
    c->Claim(cur, "catalog");
    PageData data;
    Status s = c->Snapshot(cur, &data);
    if (!s.ok()) {
      c->Add(IntegrityFindingKind::kUnreadablePage, cur, "catalog",
             s.message());
      break;
    }
    const uint8_t* p = data.data();
    if (PageRead<uint32_t>(p, 0) != kCatalogMagic) {
      c->Add(IntegrityFindingKind::kCatalogChain, cur, "catalog",
             "bad chain-page magic");
      break;
    }
    uint32_t len = PageRead<uint32_t>(p, 8);
    if (len > kCatalogChainCapacity) {
      c->Add(IntegrityFindingKind::kCatalogChain, cur, "catalog",
             "payload length " + std::to_string(len) + " exceeds capacity");
      break;
    }
    chain.push_back(cur);
    cur = PageRead<uint32_t>(p, 4);
  }
  if (chain != c->db->catalog_pages()) {
    c->Add(IntegrityFindingKind::kCatalogChain,
           chain.empty() ? kCatalogRootPage : chain.front(), "catalog",
           "on-disk chain (" + std::to_string(chain.size()) +
               " pages) diverges from the loaded chain (" +
               std::to_string(c->db->catalog_pages().size()) + " pages)");
  }
}

void CheckTable(Checker* c, Table* table) {
  c->report.tables_checked++;
  const std::string heap_object = "heap:" + table->name();

  // Heap pages: structure plus the live-RID set for the cross-reference.
  std::unordered_set<uint64_t> live;
  uint64_t live_records = 0;
  for (PageId pid : table->heap()->pages()) {
    c->Claim(pid, heap_object);
    PageData data;
    Status s = c->Snapshot(pid, &data);
    if (!s.ok()) {
      c->Add(IntegrityFindingKind::kUnreadablePage, pid, heap_object,
             s.message());
      continue;
    }
    std::vector<uint16_t> slots;
    Status h = HeapFile::CheckPage(data.data(), pid, &slots);
    if (!h.ok()) {
      c->Add(IntegrityFindingKind::kHeapPage, pid, heap_object, h.message());
      continue;
    }
    c->report.heap_pages_checked++;
    for (uint16_t slot : slots) live.insert(Rid{pid, slot}.ToU64());
    live_records += slots.size();
  }
  if (live_records != table->record_count()) {
    c->Add(IntegrityFindingKind::kHeapBookkeeping, kInvalidPageId, heap_object,
           "heap holds " + std::to_string(live_records) +
               " live records but the catalog records " +
               std::to_string(table->record_count()));
  }

  for (const auto& index : table->indexes()) {
    c->report.indexes_checked++;
    const BTreeMeta meta = index->tree()->meta();
    TreeWalk walk{c, "index:" + table->name() + "." + index->name(), &live};
    const bool complete = walk.Walk(meta);
    for (PageId node : walk.visited) c->Claim(node, walk.object);

    // Forward direction already proved seen_rids ⊆ live with no duplicates;
    // equal cardinality upgrades that to a bijection, i.e. every live heap
    // record is indexed exactly once.
    if (complete && walk.seen_rids.size() != live.size()) {
      c->Add(IntegrityFindingKind::kRidCrossRef, meta.root, walk.object,
             "index resolves " + std::to_string(walk.seen_rids.size()) +
                 " distinct rids but the heap has " +
                 std::to_string(live.size()) + " live records");
    }
  }
}

void ScanUnclaimedPages(Checker* c) {
  const size_t n = c->db->page_count();
  for (PageId id = 0; id < n; ++id) {
    if (c->owners.count(id) > 0) continue;
    PageData data;
    Status s = c->Snapshot(id, &data);
    if (!s.ok()) {
      c->Add(IntegrityFindingKind::kUnreadablePage, id, "store", s.message());
    }
  }
}

}  // namespace

IntegrityReport CheckTree(BufferPool* pool, const BTree& tree) {
  Checker c{nullptr, pool, {}, {}, {}};
  TreeWalk walk{&c, "btree", /*live=*/nullptr};
  walk.Walk(tree.meta());
  return std::move(c.report);
}

IntegrityReport CheckDatabase(Database* db,
                              const IntegrityCheckOptions& options) {
  Checker c{db, db->pool(), options, {}, {}};

  Counter* repairs =
      db->metrics() != nullptr ? db->metrics()->counter("integrity.repairs")
                               : nullptr;
  const uint64_t repairs_before =
      repairs != nullptr ? repairs->value.load() : 0;

  if (db->durable()) CheckSuperblockAndWal(&c);
  // In-memory databases never serialize a catalog; skip the chain walk
  // unless one exists.
  if (db->durable() || !db->catalog_pages().empty()) CheckCatalogChain(&c);
  for (Table* table : db->ListTables()) CheckTable(&c, table);
  if (options.scan_all_pages) ScanUnclaimedPages(&c);

  if (repairs != nullptr) {
    c.report.repaired_during_check =
        repairs->value.load() - repairs_before;
  }
  return std::move(c.report);
}

}  // namespace dynopt
