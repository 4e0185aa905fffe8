// Session simulation: a long randomized interleaving of inserts, deletes,
// and dynamic retrievals against an in-memory oracle model — the whole
// stack (heap, indexes, estimation, tactics, competition) exercised as one
// system, FoundationDB-style.

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "integrity/check.h"
#include "util/rng.h"

namespace dynopt {
namespace {

struct OracleRow {
  int64_t id, age, income;
};

class SessionSimTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionSimTest, MixedDmlAndQueriesStayConsistent) {
  Rng rng(GetParam());
  Database db(DatabaseOptions{.pool_pages = 128});  // small: constant paging
  auto t = db.CreateTable("t", Schema({{"id", ValueType::kInt64},
                                       {"age", ValueType::kInt64},
                                       {"income", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  Table* table = *t;
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());
  ASSERT_TRUE(table->CreateIndex("by_income", {"income"}).ok());

  std::map<uint64_t, OracleRow> oracle;  // rid -> row
  int64_t next_id = 0;

  // One long-lived engine per query shape, re-Opened with fresh params —
  // exactly how an application holds prepared statements.
  RetrievalSpec range_spec;
  range_spec.table = table;
  range_spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
       Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("cap"))});
  range_spec.projection = {0, 1, 2};
  DynamicRetrieval range_engine(&db, range_spec);

  RetrievalSpec point_spec;
  point_spec.table = table;
  point_spec.restriction =
      Predicate::Compare(0, CompareOp::kEq, Operand::HostVar("id"));
  point_spec.projection = {0};
  DynamicRetrieval point_engine(&db, point_spec);

  for (int op = 0; op < 4000; ++op) {
    double roll = rng.NextDouble();
    if (oracle.empty() || roll < 0.5) {
      OracleRow row{next_id++, rng.NextInt(0, 99), rng.NextInt(0, 99999)};
      auto rid = table->Insert(Record{row.id, row.age, row.income});
      ASSERT_TRUE(rid.ok());
      oracle[rid->ToU64()] = row;
    } else if (roll < 0.7) {
      auto it = oracle.begin();
      std::advance(it, rng.NextBounded(oracle.size()));
      ASSERT_TRUE(table->Delete(Rid::FromU64(it->first)).ok());
      oracle.erase(it);
    } else if (roll < 0.9) {
      // Range query with random params, verified against the oracle.
      int64_t lo = rng.NextInt(0, 99);
      int64_t hi = lo + rng.NextInt(0, 30);
      int64_t cap = rng.NextInt(0, 120000);
      ParamMap params{{"lo", Value(lo)}, {"hi", Value(hi)},
                      {"cap", Value(cap)}};
      ASSERT_TRUE(range_engine.Open(params).ok());
      std::set<uint64_t> got;
      RowBatch batch;
      for (;;) {
        auto more = range_engine.NextBatch(&batch);
        ASSERT_TRUE(more.ok()) << more.status();
        if (!*more) break;
        for (uint32_t r = 0; r < batch.num_rows(); ++r) {
          got.insert(batch.rid(r).ToU64());
        }
      }
      std::set<uint64_t> want;
      for (const auto& [rid, r] : oracle) {
        if (r.age >= lo && r.age <= hi && r.income < cap) want.insert(rid);
      }
      ASSERT_EQ(got, want)
          << "op " << op << " lo=" << lo << " hi=" << hi << " cap=" << cap
          << " tactic=" << TacticName(range_engine.tactic());
      // The typed trace must report exactly one chosen tactic per
      // execution, and it must be the one the engine actually ran.
      auto chosen =
          range_engine.events().Subjects(TraceEventKind::kTacticChosen);
      ASSERT_EQ(chosen.size(), 1u);
      ASSERT_EQ(chosen[0], TacticName(range_engine.tactic()));
    } else {
      // Point query: existing id half the time, missing id otherwise.
      int64_t id;
      if (rng.NextBool() && !oracle.empty()) {
        auto it = oracle.begin();
        std::advance(it, rng.NextBounded(oracle.size()));
        id = it->second.id;
      } else {
        id = next_id + 1000000;
      }
      ParamMap params{{"id", Value(id)}};
      ASSERT_TRUE(point_engine.Open(params).ok());
      RowBatch batch;
      int found = 0;
      for (;;) {
        auto more = point_engine.NextBatch(&batch);
        ASSERT_TRUE(more.ok());
        if (!*more) break;
        found += static_cast<int>(batch.num_rows());
      }
      int expect = 0;
      for (const auto& [rid, r] : oracle) {
        if (r.id == id) expect++;
      }
      ASSERT_EQ(found, expect) << "id " << id;
    }
  }
  // Structural soundness after the whole session.
  for (const auto& index : table->indexes()) {
    EXPECT_TRUE(CheckTree(db.pool(), *index->tree()).clean());
    EXPECT_EQ(index->tree()->entry_count(), oracle.size());
  }
  EXPECT_EQ(table->record_count(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionSimTest,
                         ::testing::Values(911, 922, 933));

}  // namespace
}  // namespace dynopt
