// Shared engine-test support: the FAMILIES fixture, the drains that
// collect what an engine delivers, the naive oracle's answer, and the small
// probes over an execution's trace and profile.
//
// Engine rows are checked against NaiveRetrieve (workload/oracle.h), the
// row-at-a-time scan that shares no code with the steppers it checks. Test
// targets that include this header link dynopt_workload.

#ifndef DYNOPT_TESTS_FAMILIES_H_
#define DYNOPT_TESTS_FAMILIES_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "obs/metrics.h"
#include "storage/page_store.h"
#include "workload/oracle.h"
#include "workload/workload.h"

namespace dynopt {

/// FAMILIES(id, age, income, city), §4's motivating table, with the rows
/// BuildFamilies(n, 42) inserts; indexes are created per test.
struct Families {
  Database db;
  Table* table = nullptr;

  explicit Families(int n = 5000, size_t pool_pages = 4096)
      : Families(n, DatabaseOptions{.pool_pages = pool_pages}) {}
  /// `store` is the page store under the database (a fault-injecting one,
  /// say).
  Families(int n, DatabaseOptions options,
           std::unique_ptr<PageStore> store = std::make_unique<MemPageStore>())
      : db(std::move(options), std::move(store)) {
    Result<Table*> t = BuildFamilies(&db, n);
    EXPECT_TRUE(t.ok()) << t.status();
    if (t.ok()) table = *t;
  }

  void Index(const std::string& name, std::vector<std::string> cols) {
    auto idx = table->CreateIndex(name, cols);
    ASSERT_TRUE(idx.ok()) << idx.status();
  }

  RetrievalSpec Spec(PredicateRef pred, std::vector<uint32_t> proj,
                     OptimizationGoal goal = OptimizationGoal::kTotalTime) {
    RetrievalSpec s;
    s.table = table;
    s.restriction = std::move(pred);
    s.projection = std::move(proj);
    s.goal = goal;
    return s;
  }
};

/// Drains `engine`, adding each delivered RID to `*rids` (may be null).
/// Returns the first error, or OK at the end of the stream.
inline Status Drain(DynamicRetrieval* engine, std::multiset<uint64_t>* rids) {
  RowBatch batch;
  for (;;) {
    Result<bool> more = engine->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    for (uint32_t r = 0; rids != nullptr && r < batch.num_rows(); ++r) {
      rids->insert(batch.rid(r).ToU64());
    }
  }
}

/// Every RID `engine` delivers; an error fails the test.
inline std::multiset<uint64_t> DrainRids(DynamicRetrieval* engine) {
  std::multiset<uint64_t> rids;
  Status st = Drain(engine, &rids);
  EXPECT_TRUE(st.ok()) << st;
  return rids;
}

/// Every row `engine` delivers, in delivery order; an error fails the test.
inline std::vector<ResultRow> DrainRows(DynamicRetrieval* engine) {
  std::vector<ResultRow> rows;
  RowBatch batch;
  for (;;) {
    Result<bool> more = engine->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) return rows;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      ResultRow& row = rows.emplace_back();
      row.rid = batch.rid(r);
      for (uint32_t c = 0; c < batch.num_columns(); ++c) {
        row.values.push_back(batch.col(c).ValueAt(r));
      }
    }
  }
}

/// The oracle's rows for `spec`; an error fails the test.
inline std::vector<ResultRow> NaiveRows(const RetrievalSpec& spec,
                                        const ParamMap& params = {}) {
  Result<std::vector<ResultRow>> rows = NaiveRetrieve(spec, params);
  EXPECT_TRUE(rows.ok()) << rows.status();
  return rows.ok() ? std::move(*rows) : std::vector<ResultRow>();
}

/// The oracle's RIDs for `spec`.
inline std::multiset<uint64_t> NaiveRids(const RetrievalSpec& spec,
                                         const ParamMap& params = {}) {
  std::multiset<uint64_t> rids;
  for (const ResultRow& row : NaiveRows(spec, params)) {
    rids.insert(row.rid.ToU64());
  }
  return rids;
}

/// `rows` as an order-insensitive set (the "result hash"): each row's RID
/// and values, printed.
inline std::multiset<std::string> RowSet(const std::vector<ResultRow>& rows) {
  std::multiset<std::string> out;
  for (const ResultRow& row : rows) {
    std::string line = std::to_string(row.rid.ToU64());
    for (const Value& v : row.values) line += "|" + v.ToString();
    out.insert(std::move(line));
  }
  return out;
}

/// The first kCompetitionVerdict event for `v`; null if none was emitted.
inline const TraceEvent* FindVerdict(const DynamicRetrieval& e, Verdict v) {
  return e.events().Find(TraceEventKind::kCompetitionVerdict, VerdictName(v));
}

inline bool SawVerdict(const DynamicRetrieval& e, Verdict v) {
  return FindVerdict(e, v) != nullptr;
}

/// Checks `e`'s kJscanIndexOutcome events against `db`'s jscan.* counters,
/// which no other execution moved: one event per counted outcome, and the
/// entries scanned (a) and RIDs kept (b) sum to the counters.
inline void ExpectJscanEventsMatchCounters(const DynamicRetrieval& e,
                                           Database* db) {
  std::map<std::string, uint64_t, std::less<>> outcomes;
  uint64_t events = 0;
  double entries = 0, kept = 0;
  for (const TraceEvent& ev : e.events().events()) {
    if (ev.kind != TraceEventKind::kJscanIndexOutcome) continue;
    outcomes[ev.detail]++;
    events++;
    entries += ev.a;
    kept += ev.b;
  }
  ASSERT_GT(events, 0u) << e.events().ToJson();
  MetricsRegistry* m = db->metrics();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(outcomes["completed"], m->Value("jscan.scans_completed"));
  EXPECT_EQ(outcomes["discarded"], m->Value("jscan.scans_discarded"));
  EXPECT_EQ(outcomes["skipped"], m->Value("jscan.scans_skipped"));
  EXPECT_EQ(events, m->Value("jscan.scans_completed") +
                        m->Value("jscan.scans_discarded") +
                        m->Value("jscan.scans_skipped"));
  EXPECT_EQ(entries, static_cast<double>(m->Value("jscan.entries_scanned")));
  EXPECT_EQ(kept, static_cast<double>(m->Value("jscan.rids_kept")));
}

/// The first span named `name` in `node`'s subtree, depth first.
inline const ProfileSpan* FindSpan(const ProfileSpan* node,
                                   std::string_view name) {
  if (node == nullptr) return nullptr;
  if (node->name == name) return node;
  for (const ProfileSpan* child : node->children) {
    if (const ProfileSpan* hit = FindSpan(child, name)) return hit;
  }
  return nullptr;
}

/// A file-backed FAMILIES database at `options.path` (any earlier file and
/// its WAL are removed) whose SpillSpec query runs a background-only Jscan
/// over by_id: 20,000 rows with 300-byte payloads, by_id alone, committed.
/// The query's 6,000-RID list spills past the default 4,096-RID memory
/// region.
inline Result<std::unique_ptr<Database>> CreateSpillDatabase(
    DatabaseOptions options) {
  std::error_code ignored;
  std::filesystem::remove(options.path, ignored);
  std::filesystem::remove(options.path + ".wal", ignored);
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Create(std::move(options)));
  DYNOPT_ASSIGN_OR_RETURN(Table * table,
                          BuildFamilies(db.get(), 20000, 42, 300));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(db->Commit());
  return db;
}

/// `id < 6000` over `db`'s FAMILIES, projecting id and city.
inline RetrievalSpec SpillSpec(Database* db) {
  RetrievalSpec spec;
  auto table = db->GetTable("families");
  EXPECT_TRUE(table.ok()) << table.status();
  spec.table = table.ok() ? *table : nullptr;
  spec.restriction = Predicate::Compare(
      0, CompareOp::kLt, Operand::Literal(Value(int64_t{6000})));
  spec.projection = {0, 3};
  return spec;
}

inline PredicateRef AgeBetween(int64_t lo, int64_t hi) {
  return Predicate::Between(1, Operand::Literal(Value(lo)),
                            Operand::Literal(Value(hi)));
}

}  // namespace dynopt

#endif  // DYNOPT_TESTS_FAMILIES_H_
