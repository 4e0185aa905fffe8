#include "catalog/index.h"

#include "util/key_codec.h"

#include <cmath>

namespace dynopt {

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Create(
    BufferPool* pool, std::string name, const Schema* schema,
    std::vector<uint32_t> key_columns) {
  if (key_columns.empty()) {
    return Status::InvalidArgument("index needs at least one key column");
  }
  for (uint32_t c : key_columns) {
    if (c >= schema->num_columns()) {
      return Status::InvalidArgument("index key column out of schema range");
    }
  }
  std::unique_ptr<SecondaryIndex> index(
      new SecondaryIndex(std::move(name), schema, std::move(key_columns)));
  DYNOPT_ASSIGN_OR_RETURN(index->tree_, BTree::Create(pool));
  return index;
}

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Open(
    BufferPool* pool, std::string name, const Schema* schema,
    std::vector<uint32_t> key_columns, const BTreeMeta& tree_meta) {
  if (key_columns.empty()) {
    return Status::Corruption("persisted index lacks key columns");
  }
  for (uint32_t c : key_columns) {
    if (c >= schema->num_columns()) {
      return Status::Corruption("persisted index key column out of range");
    }
  }
  std::unique_ptr<SecondaryIndex> index(
      new SecondaryIndex(std::move(name), schema, std::move(key_columns)));
  index->tree_ = BTree::Open(pool, tree_meta);
  return index;
}

Result<std::string> SecondaryIndex::MakeKeyPrefix(const Record& record) const {
  std::string key;
  for (uint32_t c : key_columns_) {
    if (c >= record.size()) {
      return Status::InvalidArgument("record lacks index key column");
    }
    const Value& v = record[c];
    if (v.type() != schema_->column(c).type) {
      return Status::InvalidArgument("index key column type mismatch");
    }
    if (v.is_double() && std::isnan(v.AsDouble())) {
      return Status::InvalidArgument("NaN cannot be an index key");
    }
    v.EncodeKey(&key);
  }
  if (key.size() + sizeof(uint64_t) > kMaxKeySize) {
    return Status::InvalidArgument("index key exceeds kMaxKeySize");
  }
  return key;
}

void SecondaryIndex::AppendRidSuffix(Rid rid, std::string* key) {
  uint64_t u = rid.ToU64();
  for (int i = 7; i >= 0; --i) {
    key->push_back(static_cast<char>((u >> (8 * i)) & 0xff));
  }
}

Result<Rid> SecondaryIndex::SplitRidSuffix(std::string_view full_key,
                                           std::string_view* prefix) {
  if (full_key.size() < 8) {
    return Status::Corruption("index key lacks RID suffix");
  }
  uint64_t u = 0;
  for (size_t i = full_key.size() - 8; i < full_key.size(); ++i) {
    u = (u << 8) | static_cast<uint8_t>(full_key[i]);
  }
  if (prefix != nullptr) {
    *prefix = full_key.substr(0, full_key.size() - 8);
  }
  return Rid::FromU64(u);
}

Status SecondaryIndex::InsertKey(std::string prefix, Rid rid) {
  AppendRidSuffix(rid, &prefix);
  return tree_->Insert(prefix, rid);
}

Status SecondaryIndex::DeleteRecord(const Record& record, Rid rid) {
  DYNOPT_ASSIGN_OR_RETURN(std::string key, MakeKeyPrefix(record));
  AppendRidSuffix(rid, &key);
  return tree_->Delete(key);
}

Status SecondaryIndex::DecodeKeyColumns(
    std::string_view full_key,
    std::vector<std::optional<Value>>* sparse) const {
  std::string_view prefix;
  DYNOPT_RETURN_IF_ERROR(SplitRidSuffix(full_key, &prefix).status());
  sparse->assign(schema_->num_columns(), std::nullopt);
  for (uint32_t c : key_columns_) {
    switch (schema_->column(c).type) {
      case ValueType::kInt64: {
        int64_t v;
        DYNOPT_RETURN_IF_ERROR(DecodeInt64(&prefix, &v));
        (*sparse)[c] = Value(v);
        break;
      }
      case ValueType::kDouble: {
        double v;
        DYNOPT_RETURN_IF_ERROR(DecodeDouble(&prefix, &v));
        (*sparse)[c] = Value(v);
        break;
      }
      case ValueType::kString: {
        std::string v;
        DYNOPT_RETURN_IF_ERROR(DecodeString(&prefix, &v));
        (*sparse)[c] = Value(std::move(v));
        break;
      }
    }
  }
  if (!prefix.empty()) {
    return Status::Corruption("index key has trailing bytes before RID");
  }
  return Status::OK();
}

Status SecondaryIndex::DecodeKeyColumnsInto(std::string_view full_key,
                                            ColumnVector* const* dests,
                                            std::string* scratch) const {
  std::string_view prefix;
  DYNOPT_RETURN_IF_ERROR(SplitRidSuffix(full_key, &prefix).status());
  for (uint32_t c : key_columns_) {
    ColumnVector* dest = dests[c];
    switch (schema_->column(c).type) {
      case ValueType::kInt64: {
        int64_t v;
        DYNOPT_RETURN_IF_ERROR(DecodeInt64(&prefix, &v));
        if (dest != nullptr) dest->AppendInt64(v);
        break;
      }
      case ValueType::kDouble: {
        double v;
        DYNOPT_RETURN_IF_ERROR(DecodeDouble(&prefix, &v));
        if (dest != nullptr) dest->AppendDouble(v);
        break;
      }
      case ValueType::kString: {
        scratch->clear();
        DYNOPT_RETURN_IF_ERROR(DecodeString(&prefix, scratch));
        if (dest != nullptr) dest->AppendString(*scratch);
        break;
      }
    }
  }
  if (!prefix.empty()) {
    return Status::Corruption("index key has trailing bytes before RID");
  }
  return Status::OK();
}

}  // namespace dynopt
