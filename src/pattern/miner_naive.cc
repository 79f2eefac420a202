#include <numeric>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "pattern/mining.h"
#include "pattern/mining_internal.h"
#include "relational/kernels.h"

namespace cape {

namespace {

using mining_internal::AggColumnRef;
using mining_internal::CandidateMap;
using mining_internal::GroupPlan;
using mining_internal::SplitCandidate;
using mining_internal::SplitPlan;

/// Brute-force pattern discovery (Appendix C, Algorithms 3 and 4): for every
/// candidate (F, V, agg, A, M), enumerate frag(R, P) and run one retrieval
/// query Q_{P,f} = gamma_{V,agg(A)}(sigma_{F=f}(R)) per fragment.
class NaiveMiner final : public PatternMiner {
 public:
  std::string name() const override { return "NAIVE"; }

  Result<MiningResult> Mine(const Table& table, const MiningConfig& config) override {
    MiningResult result;
    result.fds = config.initial_fds;
    MiningProfile& profile = result.profile;
    Stopwatch total;
    StopToken stop = config.MakeStopToken();
    CandidateMap candidates;

    CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                          mining_internal::EnumerateGroupSets(*table.schema(), config));
    for (AttrSet g : group_sets) {
      if (result.truncated) break;
      const GroupPlan plan = mining_internal::PlanGroup(table, g, config);
      for (const SplitPlan& split : plan.splits) {
        for (const SplitCandidate& candidate : split.candidates) {
          profile.num_candidates += 1;
          Status st = EvaluateCandidate(table, plan.specs[candidate.agg], split,
                                        candidate.pattern, config, &profile, &candidates,
                                        &stop);
          if (st.IsStop()) {
            // The partially-evaluated candidate was discarded; keep the
            // fully-evaluated ones and report truncation.
            result.truncated = true;
            result.stop_reason = stop.reason();
            break;
          }
          CAPE_RETURN_IF_ERROR(st);
        }
        if (result.truncated) break;
      }
    }

    result.patterns = mining_internal::FinalizePatterns(std::move(candidates), config);
    profile.total_ns = total.ElapsedNanos();
    return result;
  }

 private:
  /// Algorithm 4 for a single candidate pattern of `split`, aggregating by
  /// `spec`. The candidate's stats are staged locally and merged only when
  /// every fragment was evaluated, so a stop mid-candidate leaves
  /// `candidates` untouched.
  static Status EvaluateCandidate(const Table& table, const AggregateSpec& spec,
                                  const SplitPlan& split, const Pattern& pattern,
                                  const MiningConfig& config, MiningProfile* profile,
                                  CandidateMap* candidates, StopToken* stop) {
    const std::vector<int> f_attrs = pattern.partition_attrs.ToIndices();
    const std::vector<int> v_attrs = pattern.predictor_attrs.ToIndices();

    TablePtr fragments;
    {
      ScopedTimer timer(&profile->query_ns);
      profile->num_queries += 1;
      CAPE_FAILPOINT("mining.group");
      CAPE_ASSIGN_OR_RETURN(fragments, ProjectDistinct(table, f_attrs, stop));
    }

    // Q_{P,f} yields V at columns 0..|V|-1 and the aggregate after them.
    std::vector<int> v_cols(v_attrs.size());
    std::iota(v_cols.begin(), v_cols.end(), 0);
    const std::vector<AggColumnRef> agg_cols = {
        AggColumnRef{pattern.agg, pattern.agg_attr, static_cast<int>(v_attrs.size())}};
    mining_internal::FragmentInputs inputs;
    CandidateMap staged;
    for (int64_t fr = 0; fr < fragments->num_rows(); ++fr) {
      CAPE_RETURN_IF_STOPPED(stop);
      Row fragment = fragments->GetRow(fr);
      std::vector<std::pair<int, Value>> conditions;
      conditions.reserve(f_attrs.size());
      for (size_t i = 0; i < f_attrs.size(); ++i) {
        conditions.emplace_back(f_attrs[i], fragment[i]);
      }
      TablePtr fragment_data;
      {
        ScopedTimer timer(&profile->query_ns);
        profile->num_queries += 1;
        // Fused σ→γ: the fragment's filtered table is never materialized.
        CAPE_ASSIGN_OR_RETURN(fragment_data,
                              FilterGroupAggregate(table, conditions, v_attrs, {spec}, stop));
      }
      const int64_t support = fragment_data->num_rows();
      mining_internal::BuildFragmentInputs(*fragment_data, 0, support, v_cols,
                                           split.v_is_numeric, agg_cols, &inputs);
      profile->num_rows_scanned += support;
      mining_internal::FitFragmentCandidate(fragment, inputs.X(0), inputs.y[0], support,
                                            pattern, config, profile, &staged);
    }
    for (auto& [p, stats] : staged) {
      candidates->insert_or_assign(p, std::move(stats));
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<PatternMiner> MakeNaiveMiner() { return std::make_unique<NaiveMiner>(); }

}  // namespace cape
