// Secondary indexes over table columns.
//
// An index maps the order-preserving encoding of one or more columns to the
// RIDs of the records holding those values. Keys are made unique by
// suffixing the 8-byte big-endian RID, which keeps duplicates adjacent and
// ordered while satisfying the B+-tree's unique-key contract.
//
// The classification the optimizer needs (§4) falls out of the key columns:
// an index is *self-sufficient* for a query iff its columns cover the
// query's restriction + projection (+ order), *order-needed* iff its column
// prefix delivers the requested order, and *fetch-needed* otherwise.

#ifndef DYNOPT_CATALOG_INDEX_H_
#define DYNOPT_CATALOG_INDEX_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "expr/value.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace dynopt {

class SecondaryIndex {
 public:
  static Result<std::unique_ptr<SecondaryIndex>> Create(
      BufferPool* pool, std::string name, const Schema* schema,
      std::vector<uint32_t> key_columns);

  /// Rebinds an index to its stored B+-tree from persisted metadata
  /// (catalog reopen). `schema` must outlive the index, as with Create.
  static Result<std::unique_ptr<SecondaryIndex>> Open(
      BufferPool* pool, std::string name, const Schema* schema,
      std::vector<uint32_t> key_columns, const BTreeMeta& tree_meta);

  /// Encodes just the key columns of `record` (no RID suffix). Rejects
  /// what the index cannot store: a NaN double, which has no place in an
  /// ordered key space, and a key past kMaxKeySize once the RID suffix is
  /// on.
  Result<std::string> MakeKeyPrefix(const Record& record) const;

  /// Adds the entry for key prefix `prefix` (from MakeKeyPrefix) at `rid`.
  Status InsertKey(std::string prefix, Rid rid);
  /// Removes the index entry for `record` stored at `rid`.
  Status DeleteRecord(const Record& record, Rid rid);

  /// Appends the 8-byte big-endian RID suffix that makes keys unique.
  static void AppendRidSuffix(Rid rid, std::string* key);

  /// Extracts the RID from a full index key; `*prefix` (optional) receives
  /// the column-encoding portion.
  static Result<Rid> SplitRidSuffix(std::string_view full_key,
                                    std::string_view* prefix = nullptr);

  /// Decodes the column values held in `full_key` into a sparse row (one
  /// optional per schema column; only this index's columns are filled).
  /// This is what lets an Sscan deliver results without record fetches.
  Status DecodeKeyColumns(std::string_view full_key,
                          std::vector<std::optional<Value>>* sparse) const;

  /// Batched twin of DecodeKeyColumns: appends each key column of
  /// `full_key` to `dests[c]` (indexed by schema column; a null entry
  /// skips that column). `scratch` is a reusable string-decode buffer so
  /// steady-state scans avoid per-entry allocation.
  Status DecodeKeyColumnsInto(std::string_view full_key,
                              ColumnVector* const* dests,
                              std::string* scratch) const;

  const std::string& name() const { return name_; }
  const std::vector<uint32_t>& key_columns() const { return key_columns_; }
  /// The set of columns an index-only scan can answer from.
  const std::set<uint32_t>& covered_columns() const { return covered_; }
  /// The leading key column (the one EstimateRange ranges over).
  uint32_t leading_column() const { return key_columns_[0]; }

  BTree* tree() { return tree_.get(); }
  const BTree* tree() const { return tree_.get(); }

 private:
  SecondaryIndex(std::string name, const Schema* schema,
                 std::vector<uint32_t> key_columns)
      : name_(std::move(name)),
        schema_(schema),
        key_columns_(std::move(key_columns)),
        covered_(key_columns_.begin(), key_columns_.end()) {}

  std::string name_;
  const Schema* schema_;
  std::vector<uint32_t> key_columns_;
  std::set<uint32_t> covered_;
  std::unique_ptr<BTree> tree_;
};

}  // namespace dynopt

#endif  // DYNOPT_CATALOG_INDEX_H_
