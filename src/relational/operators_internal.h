#ifndef CAPE_RELATIONAL_OPERATORS_INTERNAL_H_
#define CAPE_RELATIONAL_OPERATORS_INTERNAL_H_

// Aggregate-state machinery shared by the scan kernels (kernels.cc) and
// IncrementalGroupBy (operators.cc). Both fold rows with the same update
// and finalize arithmetic — in particular the int64 sum's dual isum/dsum
// accumulation and the boxed min/max comparison rules — which is what makes
// a maintained group table byte-identical to a fresh GROUP BY.

#include <cstdint>
#include <vector>

#include "relational/operators.h"
#include "relational/table.h"

namespace cape::relational_internal {

Status ValidateColumnIndex(const Table& table, int col);
Status ValidateAggSpec(const Table& table, const AggregateSpec& spec);

/// Output field type of one aggregate over `table`.
DataType AggOutputType(const Table& table, const AggregateSpec& spec);

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;  // non-null inputs (rows for count(*))
  int64_t isum = 0;   // integer sum
  double dsum = 0.0;  // double sum
  Value extreme;      // min or max so far (the spec's func says which);
                      // NULL until the first non-null input
};

/// Pre-resolved update shape of one aggregate, so the per-row fold
/// dispatches on a dense enum instead of re-deriving (func, column type)
/// per row.
enum class AggKind : uint8_t {
  kCountStar,  // count(*): rows
  kCountCol,   // count(col): non-null rows
  kSumInt64,   // sum/avg over an int64 column
  kSumDouble,  // sum/avg over a double column
  kMinMax,     // min/max: boxed Value comparisons
};

struct AggPlan {
  AggKind kind = AggKind::kCountStar;
  int col_idx = -1;  // input column (kCountStar: unused)
};

std::vector<AggPlan> CompileAggPlans(const Table& table,
                                     const std::vector<AggregateSpec>& aggs);

/// Folds row `i` of `chunks` (one ColumnChunk per column of `table`) into
/// states[0, aggs.size()).
void UpdateAggStates(const Table& table, const std::vector<AggregateSpec>& aggs,
                     const std::vector<AggPlan>& plans, const ColumnChunk* chunks,
                     int64_t i, AggState* states);

Value FinalizeAggState(const Table& table, const AggregateSpec& spec,
                       const AggState& state);

}  // namespace cape::relational_internal

#endif  // CAPE_RELATIONAL_OPERATORS_INTERNAL_H_
