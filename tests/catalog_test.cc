#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "catalog/index.h"
#include "catalog/table.h"
#include "integrity/check.h"
#include "util/rng.h"

namespace dynopt {
namespace {

Schema PeopleSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"age", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

Record Person(int64_t id, int64_t age, std::string name, double score) {
  return Record{id, age, std::move(name), score};
}

TEST(DatabaseTest, CreateAndLookupTables) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.CreateTable("people", PeopleSchema()).status()
                  .IsInvalidArgument());
  auto got = db.GetTable("people");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *t);
  EXPECT_TRUE(db.GetTable("nope").status().IsNotFound());
}

TEST(TableTest, InsertFetchDelete) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto rid = (*t)->Insert(Person(1, 30, "ann", 1.5));
  ASSERT_TRUE(rid.ok());
  auto rec = (*t)->Fetch(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)[2].AsString(), "ann");
  ASSERT_TRUE((*t)->Delete(*rid).ok());
  EXPECT_TRUE((*t)->Fetch(*rid).status().IsNotFound());
}

TEST(TableTest, InsertValidatesSchema) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  Record bad{int64_t{1}, std::string("oops"), std::string("ann"), 1.5};
  EXPECT_TRUE((*t)->Insert(bad).status().IsInvalidArgument());
}

TEST(TableTest, IndexBackfillAndMaintenance) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    auto rid = (*t)->Insert(Person(i, i % 50, "p" + std::to_string(i), 0.0));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  // Backfill happens for pre-existing rows.
  auto idx = (*t)->CreateIndex("by_age", {"age"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->tree()->entry_count(), 100u);

  // New inserts and deletes maintain the index.
  auto rid = (*t)->Insert(Person(100, 7, "new", 0.0));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*idx)->tree()->entry_count(), 101u);
  ASSERT_TRUE((*t)->Delete(rids[3]).ok());
  EXPECT_EQ((*idx)->tree()->entry_count(), 100u);
  ASSERT_TRUE(CheckTree(db.pool(), *(*idx)->tree()).clean());

  EXPECT_TRUE((*t)->CreateIndex("by_age", {"age"}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE((*t)->CreateIndex("bad", {"ghost"}).status().IsNotFound());
  auto got = (*t)->GetIndex("by_age");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *idx);
}

// A record an index rejects leaves no trace: no heap row, no entry in an
// index that accepted its key, and a database the checker finds clean.
void ExpectInsertRejectedWithoutTrace(const Record& bad) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto by_id = (*t)->CreateIndex("by_id", {"id"});
  ASSERT_TRUE(by_id.ok());
  auto by_name = (*t)->CreateIndex("by_name", {"name"});
  ASSERT_TRUE(by_name.ok());
  auto by_score = (*t)->CreateIndex("by_score", {"score"});
  ASSERT_TRUE(by_score.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*t)->Insert(Person(i, 30, "p" + std::to_string(i), i)).ok());
  }
  EXPECT_TRUE((*t)->Insert(bad).status().IsInvalidArgument());
  EXPECT_EQ((*t)->record_count(), 10u);
  for (SecondaryIndex* index : {*by_id, *by_name, *by_score}) {
    EXPECT_EQ(index->tree()->entry_count(), 10u) << index->name();
  }
  IntegrityReport report = CheckDatabase(&db);
  EXPECT_TRUE(report.clean()) << report.Summary();
}

TEST(TableTest, RejectedNanKeyLeavesNoTrace) {
  ExpectInsertRejectedWithoutTrace(Person(10, 30, "nan", std::nan("")));
}

TEST(TableTest, RejectedOversizedKeyLeavesNoTrace) {
  ExpectInsertRejectedWithoutTrace(Person(10, 30, std::string(2000, 'x'), 1));
}

TEST(IndexTest, DuplicateColumnValuesCoexistViaRidSuffix) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto idx = (*t)->CreateIndex("by_age", {"age"});
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*t)->Insert(Person(i, 42, "same", 0.0)).ok());
  }
  EXPECT_EQ((*idx)->tree()->entry_count(), 500u);
  ASSERT_TRUE(CheckTree(db.pool(), *(*idx)->tree()).clean());
}

TEST(IndexTest, RidSuffixRoundTrip) {
  std::string key = "prefix";
  Rid rid{123456, 789};
  SecondaryIndex::AppendRidSuffix(rid, &key);
  std::string_view prefix;
  auto back = SecondaryIndex::SplitRidSuffix(key, &prefix);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rid);
  EXPECT_EQ(prefix, "prefix");
  EXPECT_TRUE(SecondaryIndex::SplitRidSuffix("short").status().IsCorruption());
}

TEST(IndexTest, RidSuffixPreservesRidOrderForEqualKeys) {
  std::string a = "k", b = "k";
  SecondaryIndex::AppendRidSuffix(Rid{1, 2}, &a);
  SecondaryIndex::AppendRidSuffix(Rid{1, 3}, &b);
  EXPECT_LT(a, b);
}

TEST(IndexTest, DecodeKeyColumnsReconstructsSparseRow) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto idx = (*t)->CreateIndex("by_age_name", {"age", "name"});
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE((*t)->Insert(Person(1, 33, "zoe", 2.0)).ok());

  auto cursor = (*idx)->tree()->NewCursor();
  ASSERT_TRUE(cursor.SeekFirst().ok());
  RidBatch entries;
  bool bound_hit = false;
  ASSERT_TRUE(cursor.NextBatch("", 1, &entries, &bound_hit).ok());
  ASSERT_EQ(entries.size(), 1u);
  std::vector<std::optional<Value>> sparse;
  ASSERT_TRUE((*idx)->DecodeKeyColumns(entries.key(0), &sparse).ok());
  ASSERT_EQ(sparse.size(), 4u);
  EXPECT_FALSE(sparse[0].has_value());
  ASSERT_TRUE(sparse[1].has_value());
  EXPECT_EQ(sparse[1]->AsInt64(), 33);
  ASSERT_TRUE(sparse[2].has_value());
  EXPECT_EQ(sparse[2]->AsString(), "zoe");
  EXPECT_FALSE(sparse[3].has_value());
}

TEST(IndexTest, CompositeIndexOrdersByColumnSequence) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto idx = (*t)->CreateIndex("by_age_name", {"age", "name"});
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE((*t)->Insert(Person(1, 30, "zeta", 0.0)).ok());
  ASSERT_TRUE((*t)->Insert(Person(2, 30, "alpha", 0.0)).ok());
  ASSERT_TRUE((*t)->Insert(Person(3, 20, "omega", 0.0)).ok());

  auto cursor = (*idx)->tree()->NewCursor();
  ASSERT_TRUE(cursor.SeekFirst().ok());
  std::vector<std::pair<int64_t, std::string>> got;
  RidBatch entries;
  bool bound_hit = false;
  auto more = cursor.NextBatch("", 16, &entries, &bound_hit);
  ASSERT_TRUE(more.ok());
  ASSERT_FALSE(*more);  // the tree ended inside the batch
  for (size_t i = 0; i < entries.size(); ++i) {
    std::vector<std::optional<Value>> sparse;
    ASSERT_TRUE((*idx)->DecodeKeyColumns(entries.key(i), &sparse).ok());
    got.emplace_back(sparse[1]->AsInt64(), sparse[2]->AsString());
  }
  std::vector<std::pair<int64_t, std::string>> expect{
      {20, "omega"}, {30, "alpha"}, {30, "zeta"}};
  EXPECT_EQ(got, expect);
}

TEST(IndexTest, NanKeyRejected) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto idx = (*t)->CreateIndex("by_score", {"score"});
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(
      (*t)->Insert(Person(1, 30, "x", std::nan("")))
          .status()
          .IsInvalidArgument());
}

TEST(IndexTest, CoveredColumnsReflectKeyColumns) {
  Database db;
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  auto idx = (*t)->CreateIndex("by_age_name", {"age", "name"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->covered_columns(), (std::set<uint32_t>{1, 2}));
  EXPECT_EQ((*idx)->leading_column(), 1u);
}

TEST(DatabaseTest, MeterAccumulatesAcrossOperations) {
  Database db(DatabaseOptions{.pool_pages = 8});
  auto t = db.CreateTable("people", PeopleSchema());
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*t)->Insert(Person(i, i, "n" + std::to_string(i), 0.0)).ok());
  }
  // A tiny pool forces real I/O.
  EXPECT_GT(db.meter().physical_writes, 0u);
  EXPECT_GT(db.CurrentCost(), 0.0);
}

}  // namespace
}  // namespace dynopt
