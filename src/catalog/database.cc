#include "catalog/database.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "integrity/check.h"
#include "util/coding.h"

namespace dynopt {
namespace {

// ---- Catalog serialization ------------------------------------------------
//
// The catalog is one blob chained across pages anchored at
// kCatalogRootPage. Chain page layout:
//   [0..4)   u32 magic 'DYCT'
//   [4..8)   u32 next page (kInvalidPageId at the end of the chain)
//   [8..12)  u32 payload bytes in this page
//   [12..)   payload
// Chain pages travel through the buffer pool like any data page, so their
// images are WAL-logged by the commit that rewrote them — page checksums
// and torn-write protection come for free.

// v1: tables only. v2 appends the profile-store blob (query-class
// aggregates); v1 databases still open — they just start with no profiles.
// v2 added the profile-store blob; v3 the learned-selectivity model blob.
constexpr uint32_t kCatalogVersion = 3;
// Layout constants (kCatalogMagic, header size, capacity) live in
// database.h so the integrity verifier can walk the chain independently.
constexpr size_t kChainHeaderSize = kCatalogChainHeaderSize;
constexpr size_t kChainCapacity = kCatalogChainCapacity;

void PutTreeMeta(std::string* out, const BTreeMeta& m) {
  PutU32(out, m.root);
  PutU32(out, m.height);
  PutU64(out, m.entry_count);
  PutU64(out, m.node_count);
  PutU64(out, m.leaf_count);
  PutU64(out, m.slot_sum);
  PutU64(out, m.max_fanout_seen);
}

bool ReadTreeMeta(ByteReader* r, BTreeMeta* m) {
  return r->U32(&m->root) && r->U32(&m->height) && r->U64(&m->entry_count) &&
         r->U64(&m->node_count) && r->U64(&m->leaf_count) &&
         r->U64(&m->slot_sum) && r->U64(&m->max_fanout_seen);
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Create(DatabaseOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("Database::Create needs options.path");
  }
  const std::string wal_path = options.path + ".wal";
  ::unlink(options.path.c_str());
  ::unlink(wal_path.c_str());

  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store,
                          FilePageStore::Open(options.path, options.crash));
  WalOptions wal_options;
  wal_options.group_commit = options.group_commit;
  wal_options.simulated_fsync_micros = options.simulated_fsync_micros;
  DYNOPT_ASSIGN_OR_RETURN(
      std::unique_ptr<Wal> wal,
      Wal::Open(wal_path, wal_options, options.crash));

  std::unique_ptr<Database> db(
      new Database(std::move(options), std::move(store)));
  db->file_store_ = static_cast<FilePageStore*>(db->store_.get());
  db->wal_ = std::move(wal);
  if (db->options_.observability) db->wal_->AttachMetrics(&db->metrics_);
  db->pool_.EnableWalOrdering();
  db->AttachRepairer();
  if (!db->options_.archive_dir.empty()) {
    WalArchiveOptions archive_options;
    archive_options.segment_bytes = db->options_.archive_segment_bytes;
    DYNOPT_ASSIGN_OR_RETURN(
        db->archive_,
        WalArchive::Create(db->options_.archive_dir, archive_options));
    db->archive_->set_crash(db->options_.crash);
    if (db->options_.observability) {
      db->archive_->AttachMetrics(&db->metrics_);
    }
    // Attach before the first Commit: archived history must start at the
    // very first record.
    db->wal_->AttachSink(db->archive_.get());
  }

  // The first Commit writes the (empty) catalog, allocating the chain head
  // as the very first page — the fixed anchor Open() reads from.
  DYNOPT_RETURN_IF_ERROR(db->Commit());
  if (db->catalog_pages_.empty() ||
      db->catalog_pages_[0] != kCatalogRootPage) {
    return Status::Internal("catalog chain head is not page 0");
  }
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options,
                                                 RecoveryStats* recovery) {
  if (options.path.empty()) {
    return Status::InvalidArgument("Database::Open needs options.path");
  }
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store,
                          FilePageStore::Open(options.path, options.crash));
  std::unique_ptr<WalArchive> archive;
  WalOptions wal_options;
  wal_options.group_commit = options.group_commit;
  wal_options.simulated_fsync_micros = options.simulated_fsync_micros;
  if (!options.archive_dir.empty()) {
    WalArchiveOptions archive_options;
    archive_options.segment_bytes = options.archive_segment_bytes;
    DYNOPT_ASSIGN_OR_RETURN(
        archive, WalArchive::Open(options.archive_dir, archive_options));
    // Timeline fence: the archive's manifest names the one history line
    // that may continue. A superblock on another timeline is a stale
    // primary overtaken by a promote (or a detached PITR clone, stamped
    // timeline 0) and must never write again.
    uint64_t file_timeline = store->superblock().timeline;
    if (file_timeline != archive->timeline()) {
      return Status::Fenced(
          "database file " + options.path + " is on timeline " +
          std::to_string(file_timeline) + " but archive " +
          options.archive_dir + " is on timeline " +
          std::to_string(archive->timeline()) +
          (file_timeline == 0
               ? " (this file is a detached restore clone)"
               : " (a standby was promoted; this primary is stale)"));
    }
    // A fresh WAL continues the archived LSN sequence (a just-promoted
    // standby has no log yet); a torn tail at or below the sealed floor is
    // media damage inside sealed history, refused typed by Wal::Open.
    wal_options.initial_start_lsn = archive->durable_end_lsn() + 1;
    wal_options.sealed_floor_lsn = archive->sealed_through_lsn();
    archive->set_crash(options.crash);
  }
  DYNOPT_ASSIGN_OR_RETURN(
      std::unique_ptr<Wal> wal,
      Wal::Open(options.path + ".wal", wal_options, options.crash));

  std::unique_ptr<Database> db(
      new Database(std::move(options), std::move(store)));
  db->file_store_ = static_cast<FilePageStore*>(db->store_.get());
  db->archive_ = std::move(archive);
  db->wal_ = std::move(wal);
  if (db->options_.observability) db->wal_->AttachMetrics(&db->metrics_);
  db->pool_.EnableWalOrdering();

  RecoveryStats stats;
  RecoveryOptions recovery_options;
  if (db->archive_ != nullptr) {
    recovery_options.archived_durable_lsn = db->archive_->durable_end_lsn();
    recovery_options.archive_sink = db->archive_.get();
  }
  DYNOPT_RETURN_IF_ERROR(RecoverFromWal(db->file_store_, db->wal_.get(),
                                        &stats, db->metrics(),
                                        recovery_options));
  if (recovery != nullptr) *recovery = stats;
  if (db->archive_ != nullptr) {
    // Recovery rolled back any uncommitted WAL tail and restarted the LSN
    // sequence at last_commit + 1; drop the matching archived suffix so
    // the archive never resurrects records the primary discarded.
    DYNOPT_RETURN_IF_ERROR(
        db->archive_->TruncateTailTo(db->wal_->durable_lsn()));
    if (db->options_.observability) {
      db->archive_->AttachMetrics(&db->metrics_);
    }
    db->wal_->AttachSink(db->archive_.get());
  }
  // After recovery, so replayed images land directly and the repairer only
  // ever serves the live read path (the WAL is empty at this instant; its
  // coverage regrows with every commit).
  db->AttachRepairer();

  if (db->store_->page_count() == 0) {
    return Status::NotFound("no committed database at " + db->options_.path);
  }
  DYNOPT_RETURN_IF_ERROR(db->LoadCatalog());

  if (db->options_.verify_on_open) {
    IntegrityReport report = CheckDatabase(db.get());
    if (!report.clean()) {
      return Status::Corruption("verify-on-open failed: " + report.Summary());
    }
  }
  return db;
}

void Database::AttachRepairer() {
  repairer_ =
      std::make_unique<WalPageRepairer>(store_.get(), wal_.get(), metrics());
  pool_.set_repairer(repairer_.get());
}

Result<Table*> Database::CreateTable(std::string name, Schema schema) {
  if (read_only_) {
    return Status::NotSupported("read-only database: CreateTable refused");
  }
  if (tables_.find(name) != tables_.end()) {
    return Status::InvalidArgument("table name already in use");
  }
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                          Table::Create(&pool_, name, std::move(schema)));
  Table* raw = table.get();
  tables_[std::move(name)] = std::move(table);
  return raw;
}

Result<Table*> Database::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + std::string(name));
  }
  return it->second.get();
}

Status Database::Commit() {
  if (read_only_) {
    return Status::NotSupported("read-only database: Commit refused");
  }
  if (wal_ == nullptr) return Status::OK();
  DYNOPT_RETURN_IF_ERROR(WriteCatalog());

  std::vector<std::pair<PageId, PageData>> dirty;
  uint64_t epoch = pool_.SnapshotDirtyPages(&dirty);
  std::vector<std::pair<PageId, const PageData*>> refs;
  refs.reserve(dirty.size());
  for (const auto& [id, data] : dirty) refs.emplace_back(id, &data);

  // The commit payload carries the allocated-page watermark so recovery
  // can restore pages that were allocated but never written (see
  // durability/recovery.h).
  std::string payload;
  PutU64(&payload, store_->page_count());
  DYNOPT_RETURN_IF_ERROR(wal_->Commit(refs, payload));
  pool_.MarkCommittedUpTo(epoch);
  return Status::OK();
}

Status Database::Checkpoint() { return CheckpointFile().status(); }

Result<bool> Database::CheckpointFile() {
  if (read_only_) {
    return Status::NotSupported("read-only database: Checkpoint refused");
  }
  if (wal_ == nullptr) return true;
  DYNOPT_RETURN_IF_ERROR(Commit());
  DYNOPT_ASSIGN_OR_RETURN(size_t pinned, pool_.FlushAll());
  DYNOPT_RETURN_IF_ERROR(file_store_->Sync());
  DYNOPT_RETURN_IF_ERROR(
      CrashHit(options_.crash, CrashPoint::kCheckpointBeforeSuperblock));
  DYNOPT_RETURN_IF_ERROR(file_store_->WriteSuperblock());
  DYNOPT_RETURN_IF_ERROR(
      CrashHit(options_.crash, CrashPoint::kCheckpointAfterSuperblock));
  // A reader's pin kept a committed page out of the file, and the log
  // holds its newest image: keep the log (recovery replays all of it)
  // until a later checkpoint can write the page back.
  if (pinned > 0) return false;
  DYNOPT_RETURN_IF_ERROR(wal_->Reset());
  return true;
}

Status Database::Close() {
  if (read_only_) return Status::OK();  // nothing to persist, by contract
  return Checkpoint();
}

Status Database::ArchiveBaseImage() {
  if (wal_ == nullptr || archive_ == nullptr) {
    return Status::NotSupported("ArchiveBaseImage needs an attached archive");
  }
  DYNOPT_ASSIGN_OR_RETURN(bool complete, CheckpointFile());
  if (!complete) {
    return Status::NotSupported(
        "ArchiveBaseImage refused: an open cursor pins a committed page the "
        "checkpoint could not write back");
  }
  // Checkpoint quiesced the file (pool flushed, store synced, superblock
  // bumped), so the on-disk bytes are exactly the durable-LSN state.
  return archive_->WriteBaseImage(wal_->durable_lsn(), options_.path);
}

Status Database::WriteCatalog() {
  std::string blob;
  PutU32(&blob, kCatalogVersion);
  PutU32(&blob, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, table] : tables_) {
    PutStr(&blob, name);
    const Schema& schema = table->schema();
    PutU32(&blob, static_cast<uint32_t>(schema.num_columns()));
    for (const Column& col : schema.columns()) {
      PutStr(&blob, col.name);
      PutU8(&blob, static_cast<uint8_t>(col.type));
    }
    PutU64(&blob, table->record_count());
    const std::vector<PageId>& pages = table->heap()->pages();
    PutU32(&blob, static_cast<uint32_t>(pages.size()));
    for (PageId p : pages) PutU32(&blob, p);
    PutU32(&blob, static_cast<uint32_t>(table->indexes().size()));
    for (const auto& index : table->indexes()) {
      PutStr(&blob, index->name());
      PutU32(&blob, static_cast<uint32_t>(index->key_columns().size()));
      for (uint32_t c : index->key_columns()) PutU32(&blob, c);
      PutTreeMeta(&blob, index->tree()->meta());
    }
  }
  PutStr(&blob, profiles_.Serialize());
  PutStr(&blob, learning_.Serialize());

  size_t chunks =
      std::max<size_t>(1, (blob.size() + kChainCapacity - 1) / kChainCapacity);
  while (catalog_pages_.size() < chunks) {
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_.NewPage());
    catalog_pages_.push_back(page.id());
  }
  for (size_t i = 0; i < chunks; ++i) {
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_.Pin(catalog_pages_[i]));
    uint8_t* p = page.mutable_data();
    std::memset(p, 0, kPageSize);
    size_t off = i * kChainCapacity;
    size_t len = off < blob.size()
                     ? std::min(kChainCapacity, blob.size() - off)
                     : 0;
    PageWrite<uint32_t>(p, 0, kCatalogMagic);
    PageWrite<uint32_t>(p, 4,
                        i + 1 < chunks ? catalog_pages_[i + 1]
                                       : kInvalidPageId);
    PageWrite<uint32_t>(p, 8, static_cast<uint32_t>(len));
    if (len > 0) std::memcpy(p + kChainHeaderSize, blob.data() + off, len);
  }
  return Status::OK();
}

Status Database::LoadCatalog() {
  catalog_pages_.clear();
  tables_.clear();
  std::string blob;
  PageId cur = kCatalogRootPage;
  while (cur != kInvalidPageId) {
    if (catalog_pages_.size() >= store_->page_count()) {
      return Status::Corruption("catalog chain is cyclic or overlong");
    }
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_.Pin(cur));
    const uint8_t* p = page.data();
    if (PageRead<uint32_t>(p, 0) != kCatalogMagic) {
      return Status::Corruption("catalog page " + std::to_string(cur) +
                                " has bad magic");
    }
    PageId next = PageRead<uint32_t>(p, 4);
    uint32_t len = PageRead<uint32_t>(p, 8);
    if (len > kChainCapacity) {
      return Status::Corruption("catalog page " + std::to_string(cur) +
                                " has bad payload length");
    }
    blob.append(reinterpret_cast<const char*>(p) + kChainHeaderSize, len);
    catalog_pages_.push_back(cur);
    cur = next;
  }

  // Counts below come from disk: decode element by element and never size
  // an allocation from one, so a corrupt count reads as a truncated blob.
  const Status truncated = Status::Corruption("catalog blob truncated");
  ByteReader r(blob);
  uint32_t version = 0;
  if (!r.U32(&version)) return truncated;
  if (version < 1 || version > kCatalogVersion) {
    return Status::Corruption("unsupported catalog version " +
                              std::to_string(version));
  }
  uint32_t table_count = 0;
  if (!r.U32(&table_count)) return truncated;
  for (uint32_t t = 0; t < table_count; ++t) {
    std::string name;
    uint32_t ncols = 0;
    if (!r.Str(&name) || !r.U32(&ncols)) return truncated;
    std::vector<Column> columns;
    for (uint32_t c = 0; c < ncols; ++c) {
      Column col;
      uint8_t type = 0;
      if (!r.Str(&col.name) || !r.U8(&type)) return truncated;
      if (type > static_cast<uint8_t>(ValueType::kString)) {
        return Status::Corruption("catalog column has bad type tag");
      }
      col.type = static_cast<ValueType>(type);
      columns.push_back(std::move(col));
    }
    uint64_t record_count = 0;
    uint32_t npages = 0;
    if (!r.U64(&record_count) || !r.U32(&npages)) return truncated;
    std::vector<PageId> pages;
    for (uint32_t i = 0; i < npages; ++i) {
      PageId p = kInvalidPageId;
      if (!r.U32(&p)) return truncated;
      pages.push_back(p);
    }
    uint32_t nindexes = 0;
    if (!r.U32(&nindexes)) return truncated;
    std::vector<TableIndexMeta> index_metas;
    for (uint32_t i = 0; i < nindexes; ++i) {
      TableIndexMeta im;
      uint32_t nkeys = 0;
      if (!r.Str(&im.name) || !r.U32(&nkeys)) return truncated;
      for (uint32_t k = 0; k < nkeys; ++k) {
        uint32_t col = 0;
        if (!r.U32(&col)) return truncated;
        im.key_columns.push_back(col);
      }
      if (!ReadTreeMeta(&r, &im.tree)) return truncated;
      index_metas.push_back(std::move(im));
    }
    DYNOPT_ASSIGN_OR_RETURN(
        std::unique_ptr<Table> table,
        Table::Open(&pool_, name, Schema(std::move(columns)),
                    std::move(pages), record_count, index_metas));
    tables_[std::move(name)] = std::move(table);
  }
  // Older catalogs carry no profile (v1) or learning (v1–2) blob; Open
  // loads into a fresh database, so those stores simply stay empty.
  if (version >= 2) {
    std::string profile_blob;
    if (!r.Str(&profile_blob)) return truncated;
    DYNOPT_RETURN_IF_ERROR(profiles_.Load(profile_blob));
  }
  if (version >= 3) {
    std::string learning_blob;
    if (!r.Str(&learning_blob)) return truncated;
    DYNOPT_RETURN_IF_ERROR(learning_.Load(learning_blob));
  }
  if (!r.exhausted()) {
    return Status::Corruption("catalog blob has trailing bytes");
  }
  return Status::OK();
}

}  // namespace dynopt
