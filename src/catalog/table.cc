#include "catalog/table.h"

namespace dynopt {

Result<std::unique_ptr<Table>> Table::Create(BufferPool* pool,
                                             std::string name, Schema schema) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table needs at least one column");
  }
  std::unique_ptr<Table> table(
      new Table(pool, std::move(name), std::move(schema)));
  DYNOPT_ASSIGN_OR_RETURN(table->heap_, HeapFile::Create(pool));
  return table;
}

Result<std::unique_ptr<Table>> Table::Open(
    BufferPool* pool, std::string name, Schema schema,
    std::vector<PageId> heap_pages, uint64_t heap_record_count,
    const std::vector<TableIndexMeta>& index_metas) {
  if (schema.num_columns() == 0) {
    return Status::Corruption("persisted table lacks columns");
  }
  if (heap_pages.empty()) {
    return Status::Corruption("persisted table lacks heap pages");
  }
  std::unique_ptr<Table> table(
      new Table(pool, std::move(name), std::move(schema)));
  table->heap_ =
      HeapFile::Open(pool, std::move(heap_pages), heap_record_count);
  for (const TableIndexMeta& im : index_metas) {
    DYNOPT_ASSIGN_OR_RETURN(
        std::unique_ptr<SecondaryIndex> index,
        SecondaryIndex::Open(pool, im.name, &table->schema_, im.key_columns,
                             im.tree));
    table->indexes_.push_back(std::move(index));
  }
  return table;
}

Result<Rid> Table::Insert(const Record& record) {
  std::string bytes;
  DYNOPT_RETURN_IF_ERROR(SerializeRecord(schema_, record, &bytes));
  // Every index encodes, and so vets, its key before the heap write: a
  // record one index rejects leaves no row and no entry behind.
  std::vector<std::string> keys(indexes_.size());
  for (size_t i = 0; i < indexes_.size(); ++i) {
    DYNOPT_ASSIGN_OR_RETURN(keys[i], indexes_[i]->MakeKeyPrefix(record));
  }
  DYNOPT_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(bytes));
  for (size_t i = 0; i < indexes_.size(); ++i) {
    DYNOPT_RETURN_IF_ERROR(indexes_[i]->InsertKey(std::move(keys[i]), rid));
  }
  return rid;
}

Status Table::Delete(Rid rid) {
  DYNOPT_ASSIGN_OR_RETURN(Record record, Fetch(rid));
  for (auto& index : indexes_) {
    DYNOPT_RETURN_IF_ERROR(index->DeleteRecord(record, rid));
  }
  return heap_->Delete(rid);
}

Result<Record> Table::Fetch(Rid rid) {
  std::string bytes;
  DYNOPT_RETURN_IF_ERROR(heap_->Fetch(rid, &bytes));
  Record record;
  DYNOPT_RETURN_IF_ERROR(DeserializeRecord(schema_, bytes, &record));
  return record;
}

Result<SecondaryIndex*> Table::CreateIndex(
    std::string index_name, const std::vector<std::string>& column_names) {
  for (const auto& existing : indexes_) {
    if (existing->name() == index_name) {
      return Status::InvalidArgument("index name already in use");
    }
  }
  std::vector<uint32_t> cols;
  cols.reserve(column_names.size());
  for (const auto& cn : column_names) {
    DYNOPT_ASSIGN_OR_RETURN(uint32_t c, schema_.ColumnIndex(cn));
    cols.push_back(c);
  }
  DYNOPT_ASSIGN_OR_RETURN(
      std::unique_ptr<SecondaryIndex> index,
      SecondaryIndex::Create(pool_, std::move(index_name), &schema_,
                             std::move(cols)));
  // Backfill from existing rows.
  auto cursor = heap_->NewCursor();
  std::string bytes;
  Rid rid;
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, cursor.Next(&bytes, &rid));
    if (!more) break;
    Record record;
    DYNOPT_RETURN_IF_ERROR(DeserializeRecord(schema_, bytes, &record));
    DYNOPT_ASSIGN_OR_RETURN(std::string key, index->MakeKeyPrefix(record));
    DYNOPT_RETURN_IF_ERROR(index->InsertKey(std::move(key), rid));
  }
  indexes_.push_back(std::move(index));
  return indexes_.back().get();
}

Result<SecondaryIndex*> Table::GetIndex(std::string_view index_name) {
  for (auto& index : indexes_) {
    if (index->name() == index_name) return index.get();
  }
  return Status::NotFound("no index named " + std::string(index_name));
}

}  // namespace dynopt
