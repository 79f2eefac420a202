#include <algorithm>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "pattern/mining.h"
#include "pattern/mining_internal.h"

namespace cape {

namespace {

using mining_internal::CandidateMap;
using mining_internal::GroupPlan;
using mining_internal::SplitPlan;

/// SHARE-GRP (Section 4.1, "One query per F ∪ V"): one aggregation query per
/// attribute set G computing every agg(A) combination at once, then one sort
/// query per (F, V) split of G. Attribute sets are independent, so they are
/// partitioned across the shared ThreadPool (MiningConfig::num_threads
/// workers); the per-G candidate patterns are disjoint and the merged result
/// is identical to the sequential one at any thread count.
class ShareGrpMiner final : public PatternMiner {
 public:
  std::string name() const override { return "SHARE-GRP"; }

  Result<MiningResult> Mine(const Table& table, const MiningConfig& config) override {
    MiningResult result;
    result.fds = config.initial_fds;
    MiningProfile& profile = result.profile;
    Stopwatch total;

    CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                          mining_internal::EnumerateGroupSets(*table.schema(), config));

    ThreadPool& pool = ThreadPool::Global();
    ThreadPool::ParallelForOptions opts;
    opts.max_workers = std::max(config.num_threads, 1);
    opts.grain = 1;  // one attribute set per claim — G work units are coarse
    opts.stop = config.MakeStopToken();
    const int workers = pool.PlannedWorkers(static_cast<int64_t>(group_sets.size()), opts);

    std::vector<CandidateMap> worker_candidates(static_cast<size_t>(workers));
    std::vector<MiningProfile> worker_profiles(static_cast<size_t>(workers));

    Status st = pool.ParallelFor(
        static_cast<int64_t>(group_sets.size()), opts,
        [&](int worker, int64_t begin, int64_t end, StopToken* stop) -> Status {
          MiningProfile& prof = worker_profiles[static_cast<size_t>(worker)];
          ScopedTimer cpu(&prof.cpu_ns);
          for (int64_t i = begin; i < end; ++i) {
            CAPE_RETURN_IF_ERROR(ProcessGroupSet(
                table, group_sets[static_cast<size_t>(i)], config, &prof,
                &worker_candidates[static_cast<size_t>(worker)], stop));
          }
          return Status::OK();
        });
    if (!st.ok()) {
      if (!st.IsStop()) return st;
      result.truncated = true;
      result.stop_reason = StopReasonFromStatus(st);
    }

    CandidateMap candidates;
    for (size_t w = 0; w < worker_candidates.size(); ++w) {
      // Candidate keys are disjoint across G sets, hence across workers.
      // Each worker map holds only fully-evaluated splits, so a truncated
      // merge is still an exact subset of the untimed result.
      for (auto& [pattern, stats] : worker_candidates[w]) {
        candidates.emplace(pattern, std::move(stats));
      }
      profile.Add(worker_profiles[w]);
    }

    result.patterns = mining_internal::FinalizePatterns(std::move(candidates), config);
    profile.total_ns = total.ElapsedNanos();
    return result;
  }

 private:
  /// All mining work for one attribute set G: one shared aggregation query,
  /// then one sort + one fit-scan per (F, V) split. A stop Status may leave
  /// already-completed splits of G in `candidates` (they are final); the
  /// in-flight split is discarded by EvaluateSplit's staging.
  static Status ProcessGroupSet(const Table& table, AttrSet g, const MiningConfig& config,
                                MiningProfile* profile, CandidateMap* candidates,
                                StopToken* stop) {
    const GroupPlan plan = mining_internal::PlanGroup(table, g, config);
    if (plan.agg_cols.empty()) return Status::OK();
    CAPE_ASSIGN_OR_RETURN(const TablePtr data,
                          mining_internal::GroupQuery(table, plan, profile, stop));
    for (const SplitPlan& split : plan.splits) {
      CAPE_RETURN_IF_ERROR(mining_internal::SortAndEvaluateSplit(
          *data, split, plan.agg_cols, config, profile, candidates, stop));
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<PatternMiner> MakeShareGrpMiner() {
  return std::make_unique<ShareGrpMiner>();
}

}  // namespace cape
