#ifndef CAPE_PATTERN_MINING_INTERNAL_H_
#define CAPE_PATTERN_MINING_INTERNAL_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "pattern/mining.h"
#include "pattern/pattern.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape::mining_internal {

/// Per-candidate accumulator across fragments.
struct CandidateStats {
  Pattern pattern;
  int64_t num_fragments = 0;
  int64_t num_supported = 0;
  int64_t num_holding = 0;
  double max_positive_dev = 0.0;
  double min_negative_dev = 0.0;
  std::vector<LocalPattern> locals;
};

using CandidateMap = std::unordered_map<Pattern, CandidateStats, PatternHasher>;

/// Attributes eligible for F/V/A: everything except excluded names.
AttrSet AllowedAttrs(const Schema& schema, const MiningConfig& config);

/// All G ⊆ allowed with 2 <= |G| <= psi, ordered by (size, bits).
/// InvalidArgument when more than 30 attributes are eligible (the subset
/// enumeration would overflow; exclude attributes or narrow the relation).
Result<std::vector<AttrSet>> EnumerateGroupSets(const Schema& schema,
                                                const MiningConfig& config);

/// One aggregate column inside an aggregated data table.
struct AggColumnRef {
  AggFunc agg = AggFunc::kCount;
  int agg_attr = Pattern::kCountStar;
  int col_in_data = -1;
};

/// One (agg, model) candidate of a split; `agg` indexes the aggregate
/// columns the split is evaluated with (GroupPlan::agg_cols).
struct SplitCandidate {
  size_t agg = 0;
  Pattern pattern;
};

/// One allowed (F, V) split of an attribute set G: F and V non-empty,
/// F ∪ V = G, and V passing the require_numeric_predictors gate.
struct SplitPlan {
  AttrSet f_attrs;
  AttrSet v_attrs;
  /// Positions of F and V within GroupPlan::g_attrs, ascending — their
  /// column positions in γ_G's output. Fragment rows and model features use
  /// this ascending R-attribute order, so all miners produce identical
  /// PatternSets.
  std::vector<int> f_pos;
  std::vector<int> v_pos;
  bool v_all_numeric = false;
  std::vector<bool> v_is_numeric;  // parallel to v_pos
  /// Aggregate-major, then MiningConfig::model_types order; linear models
  /// only when V is all numeric (string predictors have no order to fit).
  std::vector<SplitCandidate> candidates;
};

/// The candidate space of one attribute set G (Section 4): its (agg, A)
/// combinations — (count, *) plus (sum|min|max, A) for each allowed numeric
/// A outside G — and every allowed (F, V) split with its candidates.
struct GroupPlan {
  std::vector<int> g_attrs;  // ascending
  /// γ_G's aggregate list (aggregate i is named "agg<i>") and, parallel to
  /// it, each aggregate's column in γ_G's output: |G| + i.
  std::vector<AggregateSpec> specs;
  std::vector<AggColumnRef> agg_cols;
  /// In ascending order of the F bitmask over g_attrs.
  std::vector<SplitPlan> splits;

  /// Index into `splits` of the split with partition attributes `f_attrs`,
  /// or -1 when that split is not allowed.
  int FindSplit(AttrSet f_attrs) const;
};

/// The plan of attribute set G under `config`. With G = ∅ the aggregates
/// are every candidate (agg, A) of the relation and there are no splits.
GroupPlan PlanGroup(const Table& table, AttrSet g, const MiningConfig& config);

/// One group-by query of the miners: γ_{G, plan.specs}(table), timed into
/// profile->query_ns and counted in num_queries.
Result<TablePtr> GroupQuery(const Table& table, const GroupPlan& plan,
                            MiningProfile* profile, StopToken* stop);

/// One sort query of the miners: `data` sorted ascending by the columns
/// `cols`, timed into profile->query_ns and counted in num_sorts.
Result<TablePtr> SortQuery(const Table& data, const std::vector<int>& cols,
                           MiningProfile* profile, StopToken* stop);

/// Regression inputs of one fragment: one predictor row per fragment row,
/// built once, and per aggregate column the responses of the rows whose
/// aggregate is non-NULL. An aggregate with a NULL cell pairs its responses
/// with its own filtered copy of the predictor rows; every other aggregate
/// (count(*) always) shares `x`. Buffers keep their capacity across
/// fragments.
struct FragmentInputs {
  std::vector<std::vector<double>> x;                       // [row][v]
  std::vector<std::vector<double>> y;                       // [agg][non-NULL row]
  std::vector<std::vector<std::vector<double>>> x_nonnull;  // [agg][non-NULL row][v]
  std::vector<uint8_t> has_null;                            // [agg]
  /// One aggregate column of the fragment, parallel to x: the value and
  /// non-NULL flag of each row. SetResponses reads it.
  std::vector<double> cell_value;
  std::vector<uint8_t> cell_valid;

  /// Sizes the buffers for a fragment of `num_rows` rows, `num_v` predictors
  /// and `num_aggs` aggregates. The caller fills x and, per aggregate, the
  /// cell_* columns before calling SetResponses.
  void Reset(size_t num_rows, size_t num_v, size_t num_aggs);

  /// Derives y[agg] (and x_nonnull[agg] when a cell is NULL) from the cell_*
  /// columns.
  void SetResponses(size_t agg);

  /// The predictor rows paired with y[agg].
  const std::vector<std::vector<double>>& X(size_t agg) const {
    return has_null[agg] ? x_nonnull[agg] : x;
  }
};

/// Fills `out` from rows [begin, end) of `data`: predictors from columns
/// `v_cols` (string predictors read 0.0 — only the constant model, which
/// ignores X, is fitted over them), one response per `agg_cols` entry.
void BuildFragmentInputs(const Table& data, int64_t begin, int64_t end,
                         const std::vector<int>& v_cols,
                         const std::vector<bool>& v_is_numeric,
                         const std::vector<AggColumnRef>& agg_cols, FragmentInputs* out);

/// Evaluates every candidate of `split` with one scan of `data`, an
/// aggregation of R on G sorted so that rows with equal F values (under
/// RowOrder) are consecutive. F and V sit at columns split.f_pos/v_pos of
/// `data`, the aggregates at agg_cols[i].col_in_data.
///
/// The split's contribution is staged locally and merged into `candidates`
/// only on completion; when `stop` fires mid-scan the stop Status is
/// returned and `candidates` is left untouched, so truncated mining runs
/// never contain partially-evaluated candidates.
Status EvaluateSplit(const Table& data, const SplitPlan& split,
                     const std::vector<AggColumnRef>& agg_cols, const MiningConfig& config,
                     MiningProfile* profile, CandidateMap* candidates,
                     StopToken* stop = nullptr);

/// SortQuery by F then V, then EvaluateSplit on the sorted rows: the
/// per-split step of CUBE and SHARE-GRP.
Status SortAndEvaluateSplit(const Table& data, const SplitPlan& split,
                            const std::vector<AggColumnRef>& agg_cols,
                            const MiningConfig& config, MiningProfile* profile,
                            CandidateMap* candidates, StopToken* stop);

/// Fits one (pattern, fragment) combination on prepared regression data and
/// folds the outcome into the candidate map: bumps fragment/support/holding
/// counters, fits pattern.model (timed into profile->regression_ns), and stores
/// a LocalPattern when the pattern holds locally (Definition 3). `X` and `y`
/// must exclude NULL aggregate rows; `support` is the full |Q_{P,f}(R)|.
void FitFragmentCandidate(const Row& fragment, const std::vector<std::vector<double>>& X,
                          const std::vector<double>& y, int64_t support,
                          const Pattern& pattern, const MiningConfig& config,
                          MiningProfile* profile, CandidateMap* candidates);

/// Converts accumulated candidate stats into the set of globally-holding
/// patterns (Definition 4), deterministically ordered.
PatternSet FinalizePatterns(CandidateMap candidates, const MiningConfig& config);

}  // namespace cape::mining_internal

#endif  // CAPE_PATTERN_MINING_INTERNAL_H_
