#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "fd/fd_detector.h"
#include "pattern/mining.h"
#include "pattern/mining_internal.h"

namespace cape {

namespace {

using mining_internal::CandidateMap;
using mining_internal::GroupPlan;
using mining_internal::SplitPlan;

/// ARP-MINE (Algorithm 2 + Algorithm 5): shares one aggregation query per
/// attribute set G, reuses each sort order for every (F, V) split whose F is
/// a prefix of the order, detects FDs from group cardinalities as a side
/// effect, and (when enabled) skips candidates that are redundant under the
/// discovered FDs (Appendix D).
///
/// Parallelism (DESIGN.md §9): attribute sets are processed level by level
/// (all G of one size), each level in three phases behind a barrier —
/// (A) group-by queries for every G of the level in parallel, (B) FD
/// recording/detection sequentially in set order, (C) sort-order exploration
/// for every G in parallel against the now-frozen FdSet. FD detection only
/// consumes cardinalities of this and previous levels, so phasing makes the
/// FDs visible to every skip decision a pure function of the level — the
/// mined pattern set is identical at any thread count (num_threads == 1
/// takes the same path).
class ArpMiner final : public PatternMiner {
 public:
  std::string name() const override { return "ARP-MINE"; }

  Result<MiningResult> Mine(const Table& table, const MiningConfig& config) override {
    MiningResult result;
    result.fds = config.initial_fds;
    MiningProfile& profile = result.profile;
    Stopwatch total;
    CandidateMap candidates;
    FdDetector detector(&result.fds);

    if (config.use_fd_optimizations) {
      // Seed singleton cardinalities (the system-catalog statistics a DBMS
      // would provide) so size-2 iterations can already test A -> B.
      ScopedTimer timer(&profile.query_ns);
      const AttrSet allowed = mining_internal::AllowedAttrs(*table.schema(), config);
      for (int a : allowed.ToIndices()) {
        profile.num_queries += 1;
        detector.RecordGroupSize(AttrSet::Single(a), table.column(a).CountDistinct());
      }
    }

    // EnumerateGroupSets yields sets in increasing size, the order the FD
    // detection correctness argument relies on (Appendix D). Contiguous runs
    // of equal size form the levels.
    CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                          mining_internal::EnumerateGroupSets(*table.schema(), config));

    ThreadPool& pool = ThreadPool::Global();
    ThreadPool::ParallelForOptions opts;
    opts.max_workers = std::max(config.num_threads, 1);
    opts.grain = 1;  // one attribute set per claim
    opts.stop = config.MakeStopToken();

    size_t level_begin = 0;
    while (level_begin < group_sets.size() && !result.truncated) {
      size_t level_end = level_begin;
      const int level_size = group_sets[level_begin].size();
      while (level_end < group_sets.size() &&
             group_sets[level_end].size() == level_size) {
        ++level_end;
      }
      const int64_t n = static_cast<int64_t>(level_end - level_begin);
      const int workers = pool.PlannedWorkers(n, opts);

      // Phase A: one shared aggregation query per G, in parallel. A stop
      // abandons the whole level: no cardinality of a partially-queried
      // level is recorded and no candidate of it is emitted, so the result
      // stays an exact subset of the untimed run.
      std::vector<GroupData> level(static_cast<size_t>(n));
      std::vector<MiningProfile> profs(static_cast<size_t>(workers));
      Status st = pool.ParallelFor(
          n, opts, [&](int worker, int64_t begin, int64_t end, StopToken* stop) -> Status {
            MiningProfile& prof = profs[static_cast<size_t>(worker)];
            ScopedTimer cpu(&prof.cpu_ns);
            for (int64_t i = begin; i < end; ++i) {
              CAPE_RETURN_IF_ERROR(RunGroupQuery(
                  table, group_sets[level_begin + static_cast<size_t>(i)], config, &prof,
                  &level[static_cast<size_t>(i)], stop));
            }
            return Status::OK();
          });
      for (const MiningProfile& p : profs) profile.Add(p);
      if (!st.ok()) {
        if (!st.IsStop()) return st;
        result.truncated = true;
        result.stop_reason = StopReasonFromStatus(st);
        break;
      }

      // Phase B: record cardinalities and detect FDs sequentially in set
      // order — identical to the sequential algorithm's visibility within a
      // level, and deterministic by construction.
      if (config.use_fd_optimizations) {
        for (size_t i = 0; i < level.size(); ++i) {
          if (level[i].data == nullptr) continue;
          const AttrSet g = group_sets[level_begin + i];
          detector.RecordGroupSize(g, level[i].data->num_rows());
          detector.DetectFdsFor(g);
        }
      }

      // Phase C: explore sort orders per G in parallel against the frozen
      // FdSet. Candidate keys embed F ∪ V = G, so the per-worker maps are
      // disjoint and each holds only fully-evaluated splits — on a stop the
      // merge below still yields a subset of the untimed result.
      const FdSet& fds = result.fds;
      std::vector<CandidateMap> worker_candidates(static_cast<size_t>(workers));
      std::fill(profs.begin(), profs.end(), MiningProfile{});
      st = pool.ParallelFor(
          n, opts, [&](int worker, int64_t begin, int64_t end, StopToken* stop) -> Status {
            MiningProfile& prof = profs[static_cast<size_t>(worker)];
            ScopedTimer cpu(&prof.cpu_ns);
            for (int64_t i = begin; i < end; ++i) {
              const GroupData& gd = level[static_cast<size_t>(i)];
              if (gd.data == nullptr) continue;
              CAPE_RETURN_IF_ERROR(ExploreSortOrders(
                  gd.plan, *gd.data, config, fds, &prof,
                  &worker_candidates[static_cast<size_t>(worker)], stop));
            }
            return Status::OK();
          });
      for (const MiningProfile& p : profs) profile.Add(p);
      // Post-phase merge: a stop here is honored at the next level boundary;
      // erroring out instead would drop the truncated-result contract the
      // stop-checked ParallelFor just upheld.
      // analyzer:allow-next-line(cancellation) truncated-result contract
      for (CandidateMap& wc : worker_candidates) {
        for (auto& [pattern, stats] : wc) candidates.emplace(pattern, std::move(stats));
      }
      if (!st.ok()) {
        if (!st.IsStop()) return st;
        result.truncated = true;
        result.stop_reason = StopReasonFromStatus(st);
        break;
      }

      level_begin = level_end;
    }

    result.patterns = mining_internal::FinalizePatterns(std::move(candidates), config);
    profile.total_ns = total.ElapsedNanos();
    return result;
  }

 private:
  /// The plan and shared aggregated data of one attribute set G; `data`
  /// stays null when G admits no aggregate candidates.
  struct GroupData {
    GroupPlan plan;
    TablePtr data;
  };

  /// Phase A for one G: plan its candidates and run the shared group-by
  /// query.
  static Status RunGroupQuery(const Table& table, AttrSet g, const MiningConfig& config,
                              MiningProfile* profile, GroupData* out, StopToken* stop) {
    out->plan = mining_internal::PlanGroup(table, g, config);
    if (out->plan.agg_cols.empty()) return Status::OK();
    CAPE_ASSIGN_OR_RETURN(out->data,
                          mining_internal::GroupQuery(table, out->plan, profile, stop));
    return Status::OK();
  }

  /// Algorithm 5: iterate permutations S of G; for each S that can test at
  /// least one unexplored (F, V), sort once and evaluate every unexplored
  /// split whose F is a prefix of S. The explored set C is local to G —
  /// its splits satisfy F ∪ V = G, so no other attribute set can ever
  /// collide with them.
  static Status ExploreSortOrders(const GroupPlan& plan, const Table& data,
                                  const MiningConfig& config, const FdSet& fds,
                                  MiningProfile* profile, CandidateMap* candidates,
                                  StopToken* stop) {
    const std::vector<int>& g_attrs = plan.g_attrs;
    const int gs = static_cast<int>(g_attrs.size());
    std::vector<bool> explored(plan.splits.size(), false);
    std::vector<int> perm = g_attrs;  // ascending = first permutation
    do {
      // Which splits with F a prefix of this order would test something
      // new? A split missing from the plan is not allowed. FD-redundant
      // splits (Appendix D) are resolved here, *before* the sort decision,
      // so a sort order whose only new splits are FD-skipped never triggers
      // a sort query.
      std::vector<const SplitPlan*> new_splits;
      AttrSet f_attrs;
      for (int len = 1; len < gs; ++len) {
        f_attrs.Add(perm[static_cast<size_t>(len - 1)]);
        const int s = plan.FindSplit(f_attrs);
        if (s < 0 || explored[static_cast<size_t>(s)]) continue;
        explored[static_cast<size_t>(s)] = true;
        const SplitPlan& split = plan.splits[static_cast<size_t>(s)];
        if (config.use_fd_optimizations &&
            (!fds.IsMinimal(f_attrs) || fds.ImpliesAll(f_attrs, split.v_attrs))) {
          profile->num_candidates_skipped_fd += static_cast<int64_t>(split.candidates.size());
          continue;
        }
        new_splits.push_back(&split);
      }
      if (new_splits.empty()) continue;

      // Column position of each attribute inside `data` = rank within g_attrs.
      std::vector<int> sort_cols;
      for (int attr : perm) {
        sort_cols.push_back(static_cast<int>(
            std::lower_bound(g_attrs.begin(), g_attrs.end(), attr) - g_attrs.begin()));
      }
      CAPE_ASSIGN_OR_RETURN(const TablePtr sorted,
                            mining_internal::SortQuery(data, sort_cols, profile, stop));
      for (const SplitPlan* split : new_splits) {
        CAPE_RETURN_IF_ERROR(mining_internal::EvaluateSplit(
            *sorted, *split, plan.agg_cols, config, profile, candidates, stop));
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<PatternMiner> MakeArpMiner() { return std::make_unique<ArpMiner>(); }

Result<std::unique_ptr<PatternMiner>> MakeMinerByName(const std::string& name) {
  if (name == "NAIVE") return MakeNaiveMiner();
  if (name == "CUBE") return MakeCubeMiner();
  if (name == "SHARE-GRP") return MakeShareGrpMiner();
  if (name == "ARP-MINE") return MakeArpMiner();
  return Status::NotFound("unknown miner '" + name +
                          "'; expected NAIVE, CUBE, SHARE-GRP, or ARP-MINE");
}

}  // namespace cape
