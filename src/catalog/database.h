// Database: the top-level facade owning storage, cache, cost meter, tables.
//
// Two storage modes share one engine:
//
//  * In-memory (the `Database db(options)` constructor): a MemPageStore,
//    no WAL, Commit/Checkpoint/Close are no-ops. The default for unit
//    tests and optimizer benchmarks.
//  * File-backed (`Database::Create` / `Database::Open`): a FilePageStore
//    under a write-ahead log. The catalog — table names, schemas, heap
//    page lists, index definitions and B+-tree roots — is serialized into
//    a page chain anchored at page 0, so the whole database (data and
//    metadata) lives in pages and recovers through one redo mechanism.
//
// Commit() is the durability boundary: it rewrites the catalog chain,
// snapshots every dirty page in the pool, appends their images plus one
// commit record to the WAL (group commit batches concurrent sessions'
// fsyncs), and only then unlocks those pages for write-back — the
// WAL-before-data rule. Open() replays the log's committed images before
// loading the catalog, so a crash at any instrumented point (see
// durability/crash.h) loses at most the uncommitted tail.
//
// Concurrency: queries may run from many sessions (the pool and WAL are
// thread-safe), but Commit/Checkpoint/Close assume a single caller with
// no concurrent mutators — the catalog snapshot is not isolated from
// in-flight writers.

#ifndef DYNOPT_CATALOG_DATABASE_H_
#define DYNOPT_CATALOG_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "durability/crash.h"
#include "governance/query_context.h"
#include "durability/file_page_store.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "integrity/repair.h"
#include "learning/selectivity_model.h"
#include "replication/archive.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/cost_meter.h"
#include "util/status.h"

namespace dynopt {

/// The catalog page chain is anchored at the first page ever allocated.
inline constexpr PageId kCatalogRootPage = 0;

/// Catalog chain page layout (see Database::WriteCatalog): [0..4) magic,
/// [4..8) next page (kInvalidPageId ends the chain), [8..12) payload
/// bytes, [12..) payload. Published so the integrity verifier can walk
/// the chain independently of the loader.
inline constexpr uint32_t kCatalogMagic = 0x54435944u;  // 'DYCT'
inline constexpr size_t kCatalogChainHeaderSize = 12;
inline constexpr size_t kCatalogChainCapacity =
    kPageSize - kCatalogChainHeaderSize;

struct DatabaseOptions {
  /// Buffer-pool frames (8 KiB each). The cache-to-data ratio is the main
  /// lever for how much cost uncertainty the paper's §3(c) effect injects.
  size_t pool_pages = 1024;
  /// Buffer-pool shards (power of two; 0 = auto from pool_pages). More
  /// shards mean less lock contention between concurrent sessions; one
  /// shard reproduces the classic global-LRU pool exactly.
  size_t pool_shards = 0;
  CostWeights cost_weights{};
  /// Attach the metrics registry and the query-class profile store to this
  /// database's components. Off, every instrumentation site in the engine
  /// reduces to one null-pointer branch.
  bool observability = true;

  // File-backed databases only (Database::Create / Database::Open); the
  // in-memory constructor ignores these.
  /// Database file path; the WAL lives beside it at `path + ".wal"`.
  std::string path{};
  /// One fsync per commit group (true) vs per commit (false) — see wal.h.
  bool group_commit = true;
  /// Simulated device-flush latency per WAL fsync (see WalOptions).
  uint32_t simulated_fsync_micros = 0;
  /// Fault-injection hooks for crash-recovery tests (not owned; may be
  /// null). See durability/crash.h.
  CrashController* crash = nullptr;
  /// Run CheckDatabase after Open() loads the catalog and fail the open
  /// with a typed Corruption (carrying the report summary) when the
  /// database is not structurally clean. See integrity/check.h.
  bool verify_on_open = true;
  /// Continuous WAL archiving (replication/archive.h). Non-empty: every
  /// commit batch is appended to the archive at this directory before it
  /// is acknowledged, and Open() refuses a superblock whose timeline the
  /// archive has fenced off (typed Fenced — this file is a stale primary
  /// or a detached PITR clone).
  std::string archive_dir{};
  /// Archive segment-roll threshold; see WalArchiveOptions.
  uint64_t archive_segment_bytes = 256 * 1024;
};

class Database {
 public:
  /// An in-memory (volatile) database.
  explicit Database(DatabaseOptions options = DatabaseOptions())
      : Database(std::move(options), std::make_unique<MemPageStore>()) {}

  /// An in-memory database over a caller-supplied page store — the seam
  /// fault-injection tests use to slide a FaultInjectingPageStore under
  /// the whole engine. No WAL; Commit/Checkpoint/Close are no-ops.
  Database(DatabaseOptions options, std::unique_ptr<PageStore> store)
      : options_(std::move(options)),
        store_(std::move(store)),
        pool_(store_.get(), options_.pool_pages, &meter_,
              options_.pool_shards) {
    // Attach before any table/index/stepper exists: they bind their
    // counters from pool()->metrics() at construction.
    if (options_.observability) {
      pool_.AttachMetrics(&metrics_);
      learning_.AttachMetrics(&metrics_);
    }
  }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a fresh file-backed database at `options.path`, replacing
  /// any existing files there, and commits the (empty) catalog.
  static Result<std::unique_ptr<Database>> Create(DatabaseOptions options);

  /// Opens an existing file-backed database: replays the WAL's committed
  /// images (redo recovery), then loads the catalog — schemas, heap files
  /// and B+-trees rebind to their pages with no rebuild. `recovery`
  /// (optional) receives what the replay found.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options,
                                                RecoveryStats* recovery =
                                                    nullptr);

  Result<Table*> CreateTable(std::string name, Schema schema);
  Result<Table*> GetTable(std::string_view name);
  /// Every table, in name order. The pointers stay valid for the
  /// database's lifetime (tables are never dropped).
  std::vector<Table*> ListTables() {
    std::vector<Table*> out;
    out.reserve(tables_.size());
    for (auto& entry : tables_) out.push_back(entry.second.get());
    return out;
  }

  /// Makes everything mutated since the last commit durable: catalog +
  /// dirty page images into the WAL, one commit record, group-committed
  /// fsync. No-op (OK) for in-memory databases.
  Status Commit();

  /// Commit, then migrate data to the database file: flush the pool, sync,
  /// bump the superblock, and reset the WAL to empty. Bounds recovery work.
  /// A committed page that an open cursor pins (a LIMIT or EXISTS plan
  /// holds one until its next Open) cannot be written back; then the WAL,
  /// which holds its newest image, is kept for recovery to replay, and a
  /// later checkpoint resets it.
  Status Checkpoint();

  /// Checkpoint; call before destruction for a clean shutdown. (Skipping
  /// it is safe — reopen replays the WAL — just slower.)
  Status Close();

  /// True when this database writes through a WAL to a file.
  bool durable() const { return wal_ != nullptr; }
  Wal* wal() { return wal_.get(); }
  FilePageStore* file_store() { return file_store_; }
  /// The attached WAL archive; null unless options.archive_dir was set.
  WalArchive* archive() { return archive_.get(); }

  /// Read-only guard rail (warm standby): while set, CreateTable, Commit
  /// and Checkpoint fail typed (NotSupported), the buffer pool refuses
  /// page allocation, and Close() is a no-op. Queries keep running.
  void SetReadOnly(bool read_only) {
    read_only_ = read_only;
    pool_.SetReadOnly(read_only);
  }
  bool read_only() const { return read_only_; }

  /// Re-reads the catalog chain from the (current) pages, rebuilding
  /// tables_. The standby calls this after applying a redo batch that
  /// rewrote catalog pages; every Table* handed out before is invalidated.
  Status ReloadCatalog() { return LoadCatalog(); }

  /// Checkpoints, then copies the quiesced database file into the archive
  /// as the base image for the current durable LSN — the restore anchor
  /// for point-in-time recovery. Requires an attached archive; refused
  /// (NotSupported) while a pinned committed page kept the file behind.
  Status ArchiveBaseImage();
  CrashController* crash() { return options_.crash; }
  /// Allocated-page watermark of the underlying store (both modes).
  size_t page_count() const { return store_->page_count(); }
  /// The catalog page chain as written/loaded; [0] == kCatalogRootPage.
  /// Empty for in-memory databases (they never serialize a catalog).
  const std::vector<PageId>& catalog_pages() const { return catalog_pages_; }
  /// The self-healing read-path repairer; non-null iff durable(). See
  /// integrity/repair.h for the quarantine surface tests poke at.
  WalPageRepairer* repairer() { return repairer_.get(); }

  BufferPool* pool() { return &pool_; }
  const CostMeter& meter() const { return meter_; }
  const CostWeights& cost_weights() const { return options_.cost_weights; }
  /// Scalar cost accumulated so far (the dynamic execution metric).
  double CurrentCost() const { return meter_.Cost(options_.cost_weights); }

  /// Engine-wide counters/histograms; null when observability is off.
  MetricsRegistry* metrics() {
    return options_.observability ? &metrics_ : nullptr;
  }
  /// Durable per-query-class profile aggregates; null when observability
  /// off. File-backed databases persist the store through the catalog, so
  /// aggregates survive Close/Open.
  ProfileStore* profiles() {
    return options_.observability ? &profiles_ : nullptr;
  }
  /// Learned selectivity corrections (always available — mode defaults to
  /// controlled, which is inert). File-backed databases persist the model
  /// through the catalog, byte-identically across Close/Open; the mode is
  /// an operator decision and is NOT persisted.
  SelectivityModel* learning() { return &learning_; }
  /// Registry as JSON with a fresh cost-meter snapshot folded in.
  std::string ExportMetricsJson() {
    SnapshotCostMeter(&metrics_, meter_);
    return metrics_.ToJson();
  }

  /// A governance context for one query against this database, bound to
  /// its metrics registry (trip counters land in governance.*).
  std::unique_ptr<QueryContext> NewQueryContext(
      QueryGovernanceOptions opts = QueryGovernanceOptions()) {
    return std::make_unique<QueryContext>(opts, metrics());
  }

 private:
  /// Serializes the catalog into the page chain at kCatalogRootPage
  /// (allocating chain pages as needed) via the pool, so catalog pages
  /// ride the same dirty-snapshot/WAL path as data pages.
  Status WriteCatalog();
  /// Reads and parses the chain, reconstructing tables_.
  Status LoadCatalog();
  /// Checkpoint's work. False when a pinned committed page kept the WAL:
  /// the file then lacks that page's newest image.
  Result<bool> CheckpointFile();
  /// Durable databases only: builds the WAL-backed repairer and points the
  /// pool's corrupt-read path at it.
  void AttachRepairer();

  DatabaseOptions options_;
  std::unique_ptr<PageStore> store_;  // outlives pool_ (declared first)
  FilePageStore* file_store_ = nullptr;  // store_ downcast; null in-memory
  // Before wal_: the log holds a raw sink pointer into the archive, so the
  // log must die first.
  std::unique_ptr<WalArchive> archive_;
  std::unique_ptr<Wal> wal_;             // null for in-memory databases
  bool read_only_ = false;
  CostMeter meter_;
  MetricsRegistry metrics_;   // before pool_: attached in the ctor body
  ProfileStore profiles_;
  SelectivityModel learning_;
  // Before pool_, so the pool's raw repairer pointer dies first.
  std::unique_ptr<WalPageRepairer> repairer_;
  BufferPool pool_;
  std::vector<PageId> catalog_pages_;  // the chain; [0] == kCatalogRootPage
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
};

}  // namespace dynopt

#endif  // DYNOPT_CATALOG_DATABASE_H_
