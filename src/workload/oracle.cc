#include "workload/oracle.h"

#include <string>

#include "storage/heap_file.h"

namespace dynopt {

Result<std::vector<ResultRow>> NaiveRetrieve(const RetrievalSpec& spec,
                                             const ParamMap& params) {
  std::vector<ResultRow> rows;
  HeapFile::Cursor cursor = spec.table->heap()->NewCursor();
  std::string bytes;
  Rid rid;
  Record record;
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, cursor.Next(&bytes, &rid));
    if (!more) return rows;
    DYNOPT_RETURN_IF_ERROR(
        DeserializeRecord(spec.table->schema(), bytes, &record));
    if (spec.restriction != nullptr) {
      DYNOPT_ASSIGN_OR_RETURN(bool keep,
                              spec.restriction->Eval(RowView(&record), params));
      if (!keep) continue;
    }
    ResultRow& row = rows.emplace_back();
    row.rid = rid;
    for (uint32_t c : spec.projection) row.values.push_back(record[c]);
  }
}

}  // namespace dynopt
