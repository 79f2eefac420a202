#include "storage/paged_table.h"

#include <utility>
#include <vector>

#include "common/macros.h"

namespace cape {

Result<TablePtr> OpenPagedTable(const std::string& path, int64_t budget_bytes) {
  CAPE_ASSIGN_OR_RETURN(std::shared_ptr<HeapFile> file, HeapFile::Open(path));
  auto table = std::make_shared<Table>(file->schema());
  for (int c = 0; c < table->num_columns(); ++c) {
    Column& col = table->mutable_column(c);
    if (col.type() == DataType::kString) {
      CAPE_RETURN_IF_ERROR(col.LoadDictionary(file->dictionary(c)));
    }
    const HeapFileColumnStats& cs = file->column_stats(c);
    col.SetPagedStats(cs.null_total, cs.min, cs.max);
  }
  auto source = std::make_shared<PagedTable>(std::move(file), budget_bytes);
  CAPE_RETURN_IF_ERROR(table->AttachPageSource(std::move(source)));
  return table;
}

}  // namespace cape
