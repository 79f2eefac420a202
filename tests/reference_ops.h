#ifndef CAPE_TESTS_REFERENCE_OPS_H_
#define CAPE_TESTS_REFERENCE_OPS_H_

// Test-only reference evaluator for the relational operators: row at a
// time, every cell boxed as a Value, no dictionary codes, no blocks, no
// chunks. It shares nothing with the kernels beyond Table/Value, so the
// randomized suites can check each kernel's output bytes against an
// independent implementation of the same semantics:
//
//  - σ: a row matches when Value::Compare(cell, v) == 0 for every condition
//    (NULL matches NULL; int64 vs double compares numerically through
//    double; NaN compares equal to every number).
//  - γ: groups in first-seen row order. Group keys are equal per column
//    when both are NULL, or both NaN with the same bits, or otherwise
//    Value::Compare == 0 (so -0.0 and 0.0 share a group). Aggregates ignore
//    NULL inputs; count(*) counts rows; sum over int64 is exact int64;
//    floating-point sums add in row order; min/max keep the first-seen
//    value among equals (Value's operator<). A global aggregation emits one
//    row even on empty input.
//  - sort: std::stable_sort of row indices with Value::Compare per key,
//    NULL first ascending, except that NaN sorts after every other double
//    and equals NaN (PostgreSQL's rule; Value::Compare's NaN-equals-all
//    would not be a strict weak ordering).
//
// Operands must be resident; the suites compare a non-resident twin's
// kernel output against the reference run on the resident table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/operators.h"
#include "relational/table.h"

namespace cape::reference {

inline bool RowMatches(const Table& t, int64_t row,
                       const std::vector<std::pair<int, Value>>& conditions) {
  for (const auto& [col, value] : conditions) {
    if (t.GetValue(row, col).Compare(value) != 0) return false;
  }
  return true;
}

inline int64_t CountMatches(const Table& t,
                            const std::vector<std::pair<int, Value>>& conditions) {
  int64_t n = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) n += RowMatches(t, r, conditions) ? 1 : 0;
  return n;
}

inline TablePtr FilterEquals(const Table& t,
                             const std::vector<std::pair<int, Value>>& conditions) {
  auto out = std::make_shared<Table>(t.schema());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (RowMatches(t, r, conditions)) {
      EXPECT_TRUE(out->AppendRow(t.GetRow(r)).ok());
    }
  }
  return out;
}

/// Text form of one group-key cell under the grouping equality above: equal
/// cells render equal, unequal cells render differently.
inline std::string KeyText(const Value& v) {
  if (v.is_null()) return "N;";
  switch (v.type()) {
    case DataType::kInt64:
      return "I" + std::to_string(v.int64_value()) + ";";
    case DataType::kDouble: {
      double d = v.double_value();
      if (d == 0.0) d = 0.0;  // -0.0 groups with 0.0
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return "D" + std::to_string(bits) + ";";
    }
    case DataType::kString:
      return "S" + std::to_string(v.string_value().size()) + ":" + v.string_value();
  }
  return "?";
}

struct RefAgg {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  Value min;
  Value max;
};

inline DataType OutputType(const Table& t, const AggregateSpec& spec) {
  switch (spec.func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kSum:
      return t.column(spec.input_col).type();
    case AggFunc::kMin:
    case AggFunc::kMax:
      return t.column(spec.input_col).type();
  }
  return DataType::kDouble;
}

inline TablePtr GroupByAggregate(const Table& t, const std::vector<int>& group_cols,
                                 const std::vector<AggregateSpec>& aggs) {
  std::vector<Field> fields;
  for (int c : group_cols) fields.push_back(t.schema()->field(c));
  for (const AggregateSpec& spec : aggs) {
    fields.push_back(Field{spec.output_name, OutputType(t, spec), true});
  }
  std::unordered_map<std::string, size_t> group_of;
  std::vector<Row> keys;
  std::vector<std::vector<RefAgg>> states;
  if (group_cols.empty()) {
    keys.emplace_back();
    states.emplace_back(aggs.size());
  }
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    Row key;
    std::string text;
    for (int c : group_cols) {
      key.push_back(t.GetValue(r, c));
      text += KeyText(key.back());
    }
    size_t g = 0;
    if (!group_cols.empty()) {
      auto [it, fresh] = group_of.emplace(text, keys.size());
      if (fresh) {
        keys.push_back(key);
        states.emplace_back(aggs.size());
      }
      g = it->second;
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      RefAgg& st = states[g][a];
      if (aggs[a].input_col == AggregateSpec::kCountStar) {
        ++st.count;
        continue;
      }
      const Value v = t.GetValue(r, aggs[a].input_col);
      if (v.is_null()) continue;
      ++st.count;
      if (v.type() == DataType::kInt64) st.isum += v.int64_value();
      if (v.is_numeric()) st.dsum += v.AsDouble();
      if (st.min.is_null() || v < st.min) st.min = v;
      if (st.max.is_null() || st.max < v) st.max = v;
    }
  }
  auto out = MakeEmptyTable(fields);
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const RefAgg& st = states[g][a];
      const AggregateSpec& spec = aggs[a];
      switch (spec.func) {
        case AggFunc::kCount:
          row.push_back(Value::Int64(st.count));
          break;
        case AggFunc::kSum:
          if (st.count == 0) {
            row.push_back(Value::Null());
          } else if (t.column(spec.input_col).type() == DataType::kInt64) {
            row.push_back(Value::Int64(st.isum));
          } else {
            row.push_back(Value::Double(st.dsum));
          }
          break;
        case AggFunc::kAvg:
          row.push_back(st.count == 0 ? Value::Null()
                                      : Value::Double(st.dsum / static_cast<double>(st.count)));
          break;
        case AggFunc::kMin:
          row.push_back(st.min);
          break;
        case AggFunc::kMax:
          row.push_back(st.max);
          break;
      }
    }
    EXPECT_TRUE(out->AppendRow(row).ok());
  }
  return out;
}

inline TablePtr FilterGroupAggregate(const Table& t,
                                     const std::vector<std::pair<int, Value>>& conditions,
                                     const std::vector<int>& group_cols,
                                     const std::vector<AggregateSpec>& aggs) {
  return reference::GroupByAggregate(*reference::FilterEquals(t, conditions), group_cols,
                                    aggs);
}

inline TablePtr ProjectDistinct(const Table& t, const std::vector<int>& cols) {
  if (!cols.empty()) return reference::GroupByAggregate(t, cols, {});
  auto out = std::make_shared<Table>(Schema::Make({}));
  if (t.num_rows() > 0) {
    EXPECT_TRUE(out->AppendRow(Row{}).ok());
  }
  return out;
}

inline bool IsNaN(const Value& v) {
  return !v.is_null() && v.type() == DataType::kDouble && std::isnan(v.double_value());
}

inline int SortCompare(const Value& a, const Value& b) {
  if (IsNaN(a) || IsNaN(b)) {
    if (a.is_null() || b.is_null()) return a.Compare(b);  // NULL first
    return static_cast<int>(IsNaN(a)) - static_cast<int>(IsNaN(b));
  }
  return a.Compare(b);
}

inline TablePtr SortTable(const Table& t, const std::vector<SortKey>& keys) {
  std::vector<int64_t> order(static_cast<size_t>(t.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (const SortKey& k : keys) {
      const int cmp = SortCompare(t.GetValue(a, k.col), t.GetValue(b, k.col));
      if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  auto out = std::make_shared<Table>(t.schema());
  for (int64_t r : order) EXPECT_TRUE(out->AppendRow(t.GetRow(r)).ok());
  return out;
}

}  // namespace cape::reference

#endif  // CAPE_TESTS_REFERENCE_OPS_H_
