#include "fd/fd_detector.h"

#include <unordered_set>

#include "common/failpoint.h"
#include "common/macros.h"
#include "relational/operators.h"

namespace cape {

void FdDetector::RecordGroupSize(AttrSet g, int64_t num_groups) {
  group_sizes_[g] = num_groups;
}

int64_t FdDetector::GetGroupSize(AttrSet g) const {
  auto it = group_sizes_.find(g);
  return it == group_sizes_.end() ? -1 : it->second;
}

int FdDetector::DetectFdsFor(AttrSet g) {
  const int64_t g_size = GetGroupSize(g);
  if (g_size < 0) return 0;
  int added = 0;
  for (int a : g.ToIndices()) {
    AttrSet lhs = g.Without(a);
    if (lhs.empty()) continue;
    const int64_t lhs_size = GetGroupSize(lhs);
    if (lhs_size < 0) continue;
    if (lhs_size == g_size) {
      size_t before = fd_set_->size();
      fd_set_->Add(lhs, a);
      if (fd_set_->size() > before) ++added;
    }
  }
  return added;
}

Result<int64_t> FdDetector::CountGroups(const Table& table, AttrSet g, StopToken* stop) {
  CAPE_FAILPOINT("fd.count_groups");
  const std::vector<int> cols = g.ToIndices();
  // Single string attribute: the distinct count is a bitmap over dictionary
  // codes — no key encoding or hashing at all. This is the dominant shape
  // (level-1 FD probes run once per attribute).
  if (cols.size() == 1 &&
      table.column(cols[0]).type() == DataType::kString) {
    const Column& col = table.column(cols[0]);
    std::vector<uint8_t> seen(static_cast<size_t>(col.dict_size()), 0);
    bool seen_null = false;
    for (int64_t row = 0; row < table.num_rows(); ++row) {
      if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      const int32_t code = col.GetCode(row);
      if (code < 0) {
        seen_null = true;
      } else {
        seen[static_cast<size_t>(code)] = 1;
      }
    }
    int64_t distinct = seen_null ? 1 : 0;
    for (uint8_t s : seen) distinct += s;
    return distinct;
  }
  GroupKeyEncoder encoder(table, cols);
  std::unordered_set<std::string> keys;
  keys.reserve(static_cast<size_t>(table.num_rows() / 4 + 1));
  std::string key;
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    key.clear();
    encoder.EncodeRow(row, &key);
    keys.insert(key);
  }
  return static_cast<int64_t>(keys.size());
}

}  // namespace cape
