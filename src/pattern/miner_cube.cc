#include <algorithm>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "pattern/mining.h"
#include "pattern/mining_internal.h"

namespace cape {

namespace {

using mining_internal::AggColumnRef;
using mining_internal::CandidateMap;
using mining_internal::GroupPlan;
using mining_internal::SplitPlan;

/// CUBE miner (Section 4.1, "Using the CUBE BY operator"): a single CUBE
/// query materializes the aggregated data for every admissible G_P; each
/// candidate then needs only a selection (on grouping_id) and a sort over
/// the materialized result.
class CubeMiner final : public PatternMiner {
 public:
  std::string name() const override { return "CUBE"; }

  Result<MiningResult> Mine(const Table& table, const MiningConfig& config) override {
    MiningResult result;
    result.fds = config.initial_fds;
    MiningProfile& profile = result.profile;
    Stopwatch total;
    StopToken stop = config.MakeStopToken();
    CandidateMap candidates;

    const AttrSet allowed = mining_internal::AllowedAttrs(*table.schema(), config);
    const std::vector<int> cube_attrs = allowed.ToIndices();
    const int n = static_cast<int>(cube_attrs.size());
    // Position of attribute a within the cube's column list.
    std::vector<int> attr_to_pos(static_cast<size_t>(table.num_columns()), -1);
    for (int i = 0; i < n; ++i) attr_to_pos[static_cast<size_t>(cube_attrs[i])] = i;

    CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                          mining_internal::EnumerateGroupSets(*table.schema(), config));

    // One cube query computes every (agg, A) combination for every G_P with
    // |G_P| <= psi: the aggregates of G = ∅. (sum(A) is materialized even
    // for groupings containing A; those columns are simply never read.)
    const GroupPlan shared = mining_internal::PlanGroup(table, AttrSet(), config);
    if (shared.specs.empty()) {
      result.patterns = PatternSet();
      profile.total_ns = total.ElapsedNanos();
      return result;
    }
    TablePtr cube;
    {
      ScopedTimer timer(&profile.query_ns);
      profile.num_queries += 1;
      CubeOptions options;
      options.min_group_size = 2;
      options.max_group_size = config.max_pattern_size;
      options.add_grouping_id = true;
      CAPE_FAILPOINT("mining.cube.group");
      auto cube_result = Cube(table, cube_attrs, shared.specs, options, &stop);
      if (!cube_result.ok()) {
        if (cube_result.status().IsStop()) {
          // A deadline hit while materializing the cube means no candidate
          // was evaluated at all: report an empty truncated result.
          result.truncated = true;
          result.stop_reason = stop.reason();
          result.patterns = PatternSet();
          profile.total_ns = total.ElapsedNanos();
          return result;
        }
        return cube_result.status();
      }
      cube = std::move(cube_result).ValueOrDie();
    }
    const int grouping_id_col = cube->num_columns() - 1;

    for (AttrSet g : group_sets) {
      if (result.truncated) break;
      // grouping_id of the grouping that keeps exactly the attributes in G.
      int64_t wanted_gid = 0;
      for (int i = 0; i < n; ++i) {
        if (!g.Contains(cube_attrs[static_cast<size_t>(i)])) {
          wanted_gid |= int64_t{1} << i;
        }
      }
      TablePtr data;
      {
        ScopedTimer timer(&profile.query_ns);
        profile.num_queries += 1;
        auto filtered = Filter(*cube, [&](int64_t row) {
          return cube->column(grouping_id_col).GetInt64(row) == wanted_gid;
        }, &stop);
        if (!filtered.ok()) {
          if (filtered.status().IsStop()) {
            result.truncated = true;
            result.stop_reason = stop.reason();
            break;
          }
          return filtered.status();
        }
        data = std::move(filtered).ValueOrDie();
      }

      // Map G's plan onto the cube's columns: attribute a sits at
      // attr_to_pos[a], and G's aggregates (shared's, minus those over an
      // attribute of G, in the same order) after the n cube attributes.
      const GroupPlan plan = mining_internal::PlanGroup(table, g, config);
      if (plan.agg_cols.empty()) continue;
      std::vector<AggColumnRef> agg_cols = plan.agg_cols;
      size_t s = 0;
      for (AggColumnRef& ref : agg_cols) {
        while (shared.agg_cols[s].agg != ref.agg || shared.agg_cols[s].agg_attr != ref.agg_attr) {
          ++s;
        }
        ref.col_in_data = n + static_cast<int>(s++);
      }
      for (SplitPlan split : plan.splits) {
        auto to_cube = [&](int& p) {
          p = attr_to_pos[static_cast<size_t>(plan.g_attrs[static_cast<size_t>(p)])];
        };
        std::for_each(split.f_pos.begin(), split.f_pos.end(), to_cube);
        std::for_each(split.v_pos.begin(), split.v_pos.end(), to_cube);
        Status st = mining_internal::SortAndEvaluateSplit(*data, split, agg_cols, config,
                                                          &profile, &candidates, &stop);
        if (st.IsStop()) {
          result.truncated = true;
          result.stop_reason = stop.reason();
          break;
        }
        CAPE_RETURN_IF_ERROR(st);
      }
    }

    result.patterns = mining_internal::FinalizePatterns(std::move(candidates), config);
    profile.total_ns = total.ElapsedNanos();
    return result;
  }
};

}  // namespace

std::unique_ptr<PatternMiner> MakeCubeMiner() { return std::make_unique<CubeMiner>(); }

}  // namespace cape
