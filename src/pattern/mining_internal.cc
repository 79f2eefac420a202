#include "pattern/mining_internal.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "stats/regression.h"

namespace cape::mining_internal {

AttrSet AllowedAttrs(const Schema& schema, const MiningConfig& config) {
  AttrSet allowed;
  for (int i = 0; i < schema.num_fields(); ++i) allowed.Add(i);
  for (const std::string& name : config.excluded_attrs) {
    int idx = schema.GetFieldIndex(name);
    if (idx >= 0) allowed.Remove(idx);
  }
  return allowed;
}

Result<std::vector<AttrSet>> EnumerateGroupSets(const Schema& schema,
                                                const MiningConfig& config) {
  const AttrSet allowed = AllowedAttrs(schema, config);
  const std::vector<int> attrs = allowed.ToIndices();
  const int n = static_cast<int>(attrs.size());
  std::vector<AttrSet> out;
  if (n > 30) {
    return Status::InvalidArgument(
        "cannot mine over " + std::to_string(n) +
        " eligible attributes (subset enumeration limit is 30); use "
        "MiningConfig::excluded_attrs to narrow the candidate space");
  }
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int size = __builtin_popcount(mask);
    if (size < 2 || size > config.max_pattern_size) continue;
    AttrSet g;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) g.Add(attrs[static_cast<size_t>(i)]);
    }
    out.push_back(g);
  }
  std::sort(out.begin(), out.end(), [](AttrSet a, AttrSet b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a.bits() < b.bits();
  });
  return out;
}

GroupPlan PlanGroup(const Table& table, AttrSet g, const MiningConfig& config) {
  GroupPlan plan;
  plan.g_attrs = g.ToIndices();
  const int gs = static_cast<int>(plan.g_attrs.size());
  const Schema& schema = *table.schema();
  const std::vector<int> allowed = AllowedAttrs(schema, config).ToIndices();
  auto add_agg = [&](AggFunc agg, int agg_attr) {
    const int i = static_cast<int>(plan.specs.size());
    plan.specs.push_back(AggregateSpec{agg, agg_attr, "agg" + std::to_string(i)});
    plan.agg_cols.push_back(AggColumnRef{agg, agg_attr, gs + i});
  };
  for (AggFunc agg : config.agg_functions) {
    if (agg == AggFunc::kCount) {
      add_agg(AggFunc::kCount, Pattern::kCountStar);
    } else if (agg != AggFunc::kAvg) {  // avg is not part of Definition 2
      for (int a : allowed) {
        if (!g.Contains(a) && IsNumericType(schema.field(a).type)) add_agg(agg, a);
      }
    }
  }

  for (uint32_t mask = 1; mask + 1 < (1u << gs); ++mask) {
    SplitPlan split;
    for (int i = 0; i < gs; ++i) {
      const int attr = plan.g_attrs[static_cast<size_t>(i)];
      if (mask & (1u << i)) {
        split.f_attrs.Add(attr);
        split.f_pos.push_back(i);
      } else {
        split.v_attrs.Add(attr);
        split.v_pos.push_back(i);
      }
    }
    for (int p : split.v_pos) {
      const int attr = plan.g_attrs[static_cast<size_t>(p)];
      split.v_is_numeric.push_back(IsNumericType(schema.field(attr).type));
    }
    split.v_all_numeric = std::find(split.v_is_numeric.begin(), split.v_is_numeric.end(),
                                    false) == split.v_is_numeric.end();
    if (config.require_numeric_predictors && !split.v_all_numeric) continue;
    for (size_t a = 0; a < plan.agg_cols.size(); ++a) {
      for (ModelType model : config.model_types) {
        if (model == ModelType::kLinear && !split.v_all_numeric) continue;
        split.candidates.push_back(SplitCandidate{
            a, Pattern{split.f_attrs, split.v_attrs, plan.agg_cols[a].agg,
                       plan.agg_cols[a].agg_attr, model}});
      }
    }
    plan.splits.push_back(std::move(split));
  }
  return plan;
}

int GroupPlan::FindSplit(AttrSet f_attrs) const {
  for (size_t i = 0; i < splits.size(); ++i) {
    if (splits[i].f_attrs == f_attrs) return static_cast<int>(i);
  }
  return -1;
}

Result<TablePtr> GroupQuery(const Table& table, const GroupPlan& plan,
                            MiningProfile* profile, StopToken* stop) {
  ScopedTimer timer(&profile->query_ns);
  profile->num_queries += 1;
  CAPE_FAILPOINT("mining.group");
  return GroupByAggregate(table, plan.g_attrs, plan.specs, stop);
}

Result<TablePtr> SortQuery(const Table& data, const std::vector<int>& cols,
                           MiningProfile* profile, StopToken* stop) {
  ScopedTimer timer(&profile->query_ns);
  profile->num_sorts += 1;
  CAPE_FAILPOINT("mining.sort");
  std::vector<SortKey> keys;
  keys.reserve(cols.size());
  for (int c : cols) keys.push_back(SortKey{c, true});
  return SortTable(data, keys, stop);
}

void FitFragmentCandidate(const Row& fragment, const std::vector<std::vector<double>>& X,
                          const std::vector<double>& y, int64_t support,
                          const Pattern& pattern, const MiningConfig& config,
                          MiningProfile* profile, CandidateMap* candidates) {
  auto [it, inserted] = candidates->try_emplace(pattern);
  CandidateStats& stats = it->second;
  if (inserted) stats.pattern = pattern;
  stats.num_fragments += 1;
  if (support < config.local_support_threshold) return;
  stats.num_supported += 1;
  if (y.empty()) return;  // aggregate was NULL everywhere; nothing to fit

  profile->num_local_fits += 1;
  std::unique_ptr<RegressionModel> fitted;
  {
    ScopedTimer timer(&profile->regression_ns);
    auto fit_result = FitRegression(pattern.model, X, y);
    if (!fit_result.ok()) return;
    fitted = std::move(fit_result).ValueOrDie();
  }
  if (fitted->goodness_of_fit() < config.local_gof_threshold) return;

  stats.num_holding += 1;
  LocalPattern local;
  local.fragment = fragment;
  local.support = support;
  for (size_t i = 0; i < y.size(); ++i) {
    const double dev = y[i] - fitted->Predict(X[i]);
    if (dev > local.max_positive_dev) local.max_positive_dev = dev;
    if (dev < local.min_negative_dev) local.min_negative_dev = dev;
  }
  if (local.max_positive_dev > stats.max_positive_dev) {
    stats.max_positive_dev = local.max_positive_dev;
  }
  if (local.min_negative_dev < stats.min_negative_dev) {
    stats.min_negative_dev = local.min_negative_dev;
  }
  local.model = std::move(fitted);
  stats.locals.push_back(std::move(local));
}

void FragmentInputs::Reset(size_t num_rows, size_t num_v, size_t num_aggs) {
  x.resize(num_rows);
  for (std::vector<double>& row : x) row.resize(num_v);
  y.resize(num_aggs);
  x_nonnull.resize(num_aggs);
  has_null.resize(num_aggs);
  cell_value.resize(num_rows);
  cell_valid.resize(num_rows);
}

void FragmentInputs::SetResponses(size_t agg) {
  std::vector<double>& responses = y[agg];
  responses.clear();
  for (size_t i = 0; i < x.size(); ++i) {
    if (cell_valid[i]) responses.push_back(cell_value[i]);
  }
  has_null[agg] = responses.size() < x.size() ? 1 : 0;
  if (!has_null[agg]) return;
  std::vector<std::vector<double>>& rows = x_nonnull[agg];
  rows.clear();
  for (size_t i = 0; i < x.size(); ++i) {
    if (cell_valid[i]) rows.push_back(x[i]);
  }
}

void BuildFragmentInputs(const Table& data, int64_t begin, int64_t end,
                         const std::vector<int>& v_cols,
                         const std::vector<bool>& v_is_numeric,
                         const std::vector<AggColumnRef>& agg_cols, FragmentInputs* out) {
  out->Reset(static_cast<size_t>(end - begin), v_cols.size(), agg_cols.size());
  for (int64_t row = begin; row < end; ++row) {
    std::vector<double>& x = out->x[static_cast<size_t>(row - begin)];
    for (size_t v = 0; v < v_cols.size(); ++v) {
      x[v] = v_is_numeric[v] ? data.column(v_cols[v]).GetNumeric(row) : 0.0;
    }
  }
  for (size_t a = 0; a < agg_cols.size(); ++a) {
    const Column& col = data.column(agg_cols[a].col_in_data);
    for (int64_t row = begin; row < end; ++row) {
      const size_t i = static_cast<size_t>(row - begin);
      out->cell_valid[i] = col.IsNull(row) ? 0 : 1;
      out->cell_value[i] = out->cell_valid[i] ? col.GetNumeric(row) : 0.0;
    }
    out->SetResponses(a);
  }
}

Status EvaluateSplit(const Table& data, const SplitPlan& split,
                     const std::vector<AggColumnRef>& agg_cols, const MiningConfig& config,
                     MiningProfile* profile, CandidateMap* candidates, StopToken* stop) {
  CAPE_RETURN_IF_STOPPED(stop);  // small splits never reach the stride below
  const int64_t n = data.num_rows();
  profile->num_candidates += static_cast<int64_t>(split.candidates.size());

  // Staging area: a stop mid-split must not leave half-evaluated candidate
  // stats behind, so the split accumulates locally and merges on success.
  // Candidate keys are unique per (F, V) split, so the merge never collides.
  CandidateMap staged;
  FragmentInputs inputs;
  std::vector<SortKey> f_keys;
  for (int c : split.f_pos) f_keys.push_back(SortKey{c, true});
  const RowOrder f_order(data, f_keys, /*rank_strings=*/false);

  // Stop checks run every kStopCheckStride scanned rows rather than at every
  // fragment boundary: the staged CandidateMap is discarded wholesale on
  // stop, so any check granularity is safe, and high-cardinality F sets have
  // a boundary nearly every row.
  int64_t begin = 0;
  int64_t rows_since_check = 0;
  for (int64_t end = 1; end <= n; ++end) {
    if (end < n && f_order.Equal(end - 1, end)) continue;
    rows_since_check += end - begin;
    if (rows_since_check >= kStopCheckStride) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      rows_since_check = 0;
    }
    Row fragment;
    fragment.reserve(split.f_pos.size());
    for (int c : split.f_pos) fragment.push_back(data.GetValue(begin, c));
    BuildFragmentInputs(data, begin, end, split.v_pos, split.v_is_numeric, agg_cols, &inputs);
    // analyzer:allow-next-line(cancellation) candidates are schema-bounded (agg x model)
    for (const SplitCandidate& candidate : split.candidates) {
      FitFragmentCandidate(fragment, inputs.X(candidate.agg), inputs.y[candidate.agg],
                           end - begin, candidate.pattern, config, profile, &staged);
    }
    begin = end;
  }
  profile->num_rows_scanned += n;

  for (auto& [pattern, stats] : staged) {
    candidates->insert_or_assign(pattern, std::move(stats));
  }
  return Status::OK();
}

Status SortAndEvaluateSplit(const Table& data, const SplitPlan& split,
                            const std::vector<AggColumnRef>& agg_cols,
                            const MiningConfig& config, MiningProfile* profile,
                            CandidateMap* candidates, StopToken* stop) {
  std::vector<int> cols = split.f_pos;
  cols.insert(cols.end(), split.v_pos.begin(), split.v_pos.end());
  CAPE_ASSIGN_OR_RETURN(const TablePtr sorted, SortQuery(data, cols, profile, stop));
  return EvaluateSplit(*sorted, split, agg_cols, config, profile, candidates, stop);
}

PatternSet FinalizePatterns(CandidateMap candidates, const MiningConfig& config) {
  std::vector<CandidateStats> held;
  // Finalization of already-mined candidates; miners stop upstream.
  // analyzer:allow-next-line(cancellation) no stop token at this boundary
  for (auto& [pattern, stats] : candidates) {
    if (stats.num_supported == 0) continue;
    const double confidence = static_cast<double>(stats.num_holding) /
                              static_cast<double>(stats.num_supported);
    if (stats.num_holding >= config.global_support_threshold &&
        confidence >= config.global_confidence_threshold) {
      held.push_back(std::move(stats));
    }
  }
  std::sort(held.begin(), held.end(), [](const CandidateStats& a, const CandidateStats& b) {
    const Pattern& p = a.pattern;
    const Pattern& q = b.pattern;
    if (p.partition_attrs != q.partition_attrs) return p.partition_attrs < q.partition_attrs;
    if (p.predictor_attrs != q.predictor_attrs) return p.predictor_attrs < q.predictor_attrs;
    if (p.agg != q.agg) return static_cast<int>(p.agg) < static_cast<int>(q.agg);
    if (p.agg_attr != q.agg_attr) return p.agg_attr < q.agg_attr;
    return static_cast<int>(p.model) < static_cast<int>(q.model);
  });

  PatternSet out;
  for (CandidateStats& stats : held) {
    GlobalPattern global;
    global.pattern = stats.pattern;
    global.num_fragments = stats.num_fragments;
    global.num_supported = stats.num_supported;
    global.num_holding = stats.num_holding;
    global.global_confidence = static_cast<double>(stats.num_holding) /
                               static_cast<double>(stats.num_supported);
    global.max_positive_dev = stats.max_positive_dev;
    global.min_negative_dev = stats.min_negative_dev;
    // Deterministic local order: sort by fragment key, each key encoded
    // once. The (key, index) pairs sort by key alone, so std::sort applies
    // the permutation it would apply to the locals themselves.
    std::vector<std::pair<std::string, size_t>> order;
    order.reserve(stats.locals.size());
    for (size_t i = 0; i < stats.locals.size(); ++i) {
      order.emplace_back(EncodeRowKey(stats.locals[i].fragment), i);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    global.locals.reserve(order.size());
    for (const auto& [key, i] : order) global.locals.push_back(std::move(stats.locals[i]));
    out.Add(std::move(global));
  }
  return out;
}

}  // namespace cape::mining_internal

namespace cape {

void MiningProfile::Add(const MiningProfile& part) {
  regression_ns += part.regression_ns;
  query_ns += part.query_ns;
  cpu_ns += part.cpu_ns;
  num_candidates += part.num_candidates;
  num_candidates_skipped_fd += part.num_candidates_skipped_fd;
  num_local_fits += part.num_local_fits;
  num_queries += part.num_queries;
  num_sorts += part.num_sorts;
  num_rows_scanned += part.num_rows_scanned;
}

uint64_t MiningConfigDigest(const MiningConfig& config) {
  Fnv64 h;
  h.UpdateU32(static_cast<uint32_t>(config.max_pattern_size));
  h.UpdateDouble(config.local_gof_threshold);
  h.UpdateI64(config.local_support_threshold);
  h.UpdateDouble(config.global_confidence_threshold);
  h.UpdateI64(config.global_support_threshold);
  h.UpdateU64(config.agg_functions.size());
  for (AggFunc f : config.agg_functions) h.UpdateU8(static_cast<uint8_t>(f));
  h.UpdateU64(config.model_types.size());
  for (ModelType m : config.model_types) h.UpdateU8(static_cast<uint8_t>(m));
  h.UpdateU8(config.require_numeric_predictors ? 1 : 0);
  h.UpdateU64(config.excluded_attrs.size());
  for (const std::string& name : config.excluded_attrs) h.UpdateString(name);
  h.UpdateU8(config.use_fd_optimizations ? 1 : 0);
  // Approximate-mode knobs change which rows are mined, hence the result;
  // the digest separates sampled pattern sets from exact ones in the cache.
  if (config.approx_sample_rows > 0) {
    h.UpdateI64(config.approx_sample_rows);
    h.UpdateU64(config.approx_seed);
    h.UpdateDouble(config.approx_failure_prob);
  }
  h.UpdateU64(config.initial_fds.size());
  for (const FunctionalDependency& fd : config.initial_fds.fds()) {
    h.UpdateU64(fd.lhs.bits());
    h.UpdateU32(static_cast<uint32_t>(fd.rhs));
  }
  return h.digest();
}

}  // namespace cape
