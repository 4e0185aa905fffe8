// Persistence: a built database closes, reopens from disk, and answers
// the same query with the same plan — no rebuild.
//
// Phase 1 builds skewed ORDERS file-backed (pages, catalog, and B-trees
// all persisted through the WAL + checkpoint), runs a parametric query at
// both ends of the skew, and closes. Phase 2 is a fresh process in
// miniature: Database::Open loads the catalog from page 0, rebinds heap
// files and index B-trees from their persisted metadata, and the same
// queries must return the same row counts with the same tactics and a
// matching EXPLAIN; the exit code is 1 when any of the three differs.
//
//   build/examples/persistence [db-path]   (default /tmp/dynopt_persistence.db)

#include <cstdio>
#include <string>

#include "catalog/database.h"
#include "core/explain.h"
#include "core/retrieval.h"
#include "workload/workload.h"

using namespace dynopt;

namespace {

constexpr int64_t kRows = 20000;

RetrievalSpec QuerySpec(Table* orders) {
  // select order_id, amount from ORDERS
  //  where customer = :customer and amount >= :floor
  RetrievalSpec spec;
  spec.table = orders;
  spec.restriction = Predicate::And(
      {Predicate::Compare(1, CompareOp::kEq, Operand::HostVar("customer")),
       Predicate::Compare(2, CompareOp::kGe, Operand::HostVar("floor"))});
  spec.projection = {0, 2};
  return spec;
}

struct QueryResult {
  uint64_t rows = 0;
  std::string tactic;
};

QueryResult RunQuery(Database* db, DynamicRetrieval* engine,
                     int64_t customer) {
  QueryResult out;
  db->pool()->EvictAll().ok();
  ParamMap params{{"customer", Value(customer)}, {"floor", Value(int64_t{1})}};
  if (!engine->Open(params).ok()) return out;
  RowBatch batch;
  for (;;) {
    auto more = engine->NextBatch(&batch);
    if (!more.ok() || !*more) break;
    out.rows += batch.num_rows();
  }
  out.tactic = std::string(TacticName(engine->tactic()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "/tmp/dynopt_persistence.db";
  ::remove(path);
  ::remove((std::string(path) + ".wal").c_str());

  std::printf("== phase 1: build, query, close ==\n\n");
  QueryResult hot_before, tail_before;
  std::string explain_before;
  {
    DatabaseOptions options;
    options.path = path;
    options.pool_pages = 4096;
    auto db = Database::Create(options);
    if (!db.ok()) {
      std::printf("create failed: %s\n", db.status().ToString().c_str());
      return 1;
    }
    auto orders = BuildOrders(db->get(), kRows, /*zipf_theta=*/1.05);
    if (!orders.ok()) {
      std::printf("build failed: %s\n", orders.status().ToString().c_str());
      return 1;
    }
    (*orders)->CreateIndex("by_customer", {"customer"}).ok();
    (*orders)->CreateIndex("by_amount", {"amount"}).ok();
    // Commit before querying: until the build is WAL-durable the no-steal
    // pool refuses to evict its dirty pages, and RunQuery's cold-cache
    // EvictAll would quietly do nothing (skewing the cost comparison
    // against the genuinely cold reopened database).
    Status commit = (*db)->Commit();
    if (!commit.ok()) {
      std::printf("commit failed: %s\n", commit.ToString().c_str());
      return 1;
    }

    DynamicRetrieval engine(db->get(), QuerySpec(*orders));
    hot_before = RunQuery(db->get(), &engine, /*customer=*/0);
    explain_before = ExplainExecution(engine, (*db)->cost_weights());
    tail_before = RunQuery(db->get(), &engine, /*customer=*/9000);
    std::printf("hot customer 0:    %6llu rows via %s\n",
                static_cast<unsigned long long>(hot_before.rows),
                hot_before.tactic.c_str());
    std::printf("tail customer 9k:  %6llu rows via %s\n",
                static_cast<unsigned long long>(tail_before.rows),
                tail_before.tactic.c_str());
    Status st = (*db)->Close();
    if (!st.ok()) {
      std::printf("close failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nclosed: checkpoint flushed every page, superblock "
                "advanced, WAL reset.\n\n");
  }

  std::printf("== phase 2: reopen from %s ==\n\n", path);
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 4096;
  auto db = Database::Open(options);
  if (!db.ok()) {
    std::printf("open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto orders = (*db)->GetTable("orders");
  if (!orders.ok()) {
    std::printf("table missing: %s\n", orders.status().ToString().c_str());
    return 1;
  }
  std::printf("catalog loaded: %llu rows, %zu indexes — no rebuild.\n\n",
              static_cast<unsigned long long>((*orders)->record_count()),
              (*orders)->indexes().size());

  DynamicRetrieval engine(db->get(), QuerySpec(*orders));
  QueryResult hot_after = RunQuery(db->get(), &engine, /*customer=*/0);
  std::string explain_after = ExplainExecution(engine, (*db)->cost_weights());
  QueryResult tail_after = RunQuery(db->get(), &engine, /*customer=*/9000);
  std::printf("hot customer 0:    %6llu rows via %s\n",
              static_cast<unsigned long long>(hot_after.rows),
              hot_after.tactic.c_str());
  std::printf("tail customer 9k:  %6llu rows via %s\n",
              static_cast<unsigned long long>(tail_after.rows),
              tail_after.tactic.c_str());

  bool counts_match = hot_after.rows == hot_before.rows &&
                      tail_after.rows == tail_before.rows;
  bool tactics_match = hot_after.tactic == hot_before.tactic &&
                       tail_after.tactic == tail_before.tactic;
  std::printf("\nrow counts %s, tactics %s across the reopen.\n",
              counts_match ? "MATCH" : "DIFFER",
              tactics_match ? "MATCH" : "DIFFER");

  std::printf("\n-- EXPLAIN for the hot-customer query after reopen --\n%s\n",
              explain_after.c_str());
  bool explain_match = explain_after == explain_before;
  if (explain_match) {
    std::printf("(identical to the pre-close EXPLAIN, byte for byte)\n");
  } else {
    std::printf("(pre-close EXPLAIN differed -- shown for comparison)\n%s\n",
                explain_before.c_str());
  }
  return counts_match && tactics_match && explain_match ? 0 : 1;
}
