#include "pattern/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "pattern/mining_internal.h"
#include "relational/operators.h"

namespace cape {

namespace {

using mining_internal::CandidateMap;
using mining_internal::CandidateStats;
using mining_internal::FragmentInputs;
using mining_internal::GroupPlan;
using mining_internal::SplitCandidate;
using mining_internal::SplitPlan;

/// Appends an exact-byte encoding of base-table cell (row, col) such that
/// two cells of the same column encode equal iff RowOrder calls them equal
/// (the equality the miners' fragment boundaries use). Within a column all
/// non-null values share one type, so: int64 payloads are exact bytes,
/// doubles canonicalize -0.0 to +0.0 (NaN is excluded upstream), and strings
/// are length-prefixed content. A leading flag byte separates NULL from
/// everything else.
void AppendCellKey(const Table& table, int64_t row, int col, std::string* key) {
  const Column& c = table.column(col);
  if (c.IsNull(row)) {
    key->push_back('\0');
    return;
  }
  key->push_back('\1');
  auto append_u64 = [key](uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      key->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
  };
  switch (c.type()) {
    case DataType::kInt64:
      append_u64(static_cast<uint64_t>(c.GetInt64(row)));
      break;
    case DataType::kDouble: {
      double v = c.GetDouble(row);
      if (v == 0.0) v = 0.0;  // -0.0 and +0.0 compare equal; one key
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      append_u64(bits);
      break;
    }
    case DataType::kString: {
      const std::string& s = c.GetString(row);
      const uint32_t len = static_cast<uint32_t>(s.size());
      for (int i = 0; i < 4; ++i) {
        key->push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
      }
      key->append(s);
      break;
    }
  }
}

/// Maintained state of one (F, V) split of an attribute set G, parallel to
/// its SplitPlan. `buckets` partitions the G-group ids by fragment key, each
/// bucket stored in the split's cell order — V values ascending under
/// RowOrder, group id (= discovery order) as the stable tie-break — which is
/// exactly the fragment row order EvaluateSplit sees after SortTable.
struct SplitState {
  std::unordered_map<std::string, std::vector<int64_t>> buckets;
  int64_t num_supported = 0;  // buckets at/above the local support threshold
  /// Surviving local patterns of each plan candidate, by fragment key.
  std::vector<std::map<std::string, LocalPattern>> locals;
  /// Positions of the split's V attributes within Rep::v_cols.
  std::vector<size_t> v_keys;
};

/// Everything maintained for one attribute set G: the incrementally folded
/// group table plus every allowed split of G.
struct GroupSetState {
  GroupPlan plan;
  std::unique_ptr<IncrementalGroupBy> groups;
  std::vector<SplitState> splits;  // parallel to plan.splits
};

/// One dirty fragment: collected sequentially, re-validated by one worker,
/// and staged until the commit barrier. `locals` is parallel to the split's
/// candidates; nullopt means the candidate no longer (or still does not)
/// hold on this fragment.
struct FragmentDelta {
  const GroupSetState* group_set = nullptr;
  const SplitPlan* plan = nullptr;
  SplitState* split = nullptr;
  std::string key;
  std::vector<int64_t> new_ids;  // ascending, all >= pre-fold group count
  std::vector<int64_t> merged;   // full bucket in cell order; empty = unchanged
  std::vector<std::optional<LocalPattern>> locals;
};

}  // namespace

struct PatternMaintainer::Rep {
  TablePtr table;
  MiningConfig config;
  uint64_t config_digest = 0;
  std::vector<int> nan_guard_cols;  // eligible double columns
  std::vector<int> v_cols;          // attributes a split may predict over, ascending
  std::vector<GroupSetState> group_sets;
  int64_t rows_folded = 0;
  MaintenanceStats stats;

  void DiscardAllFolds() {
    for (GroupSetState& gs : group_sets) gs.groups->DiscardFold();
  }

  /// Buffers one worker reuses across its RefitFragment calls of a delta.
  struct RefitScratch {
    CandidateMap fits;
    FragmentInputs inputs;
  };

  Status RefitFragment(const RowOrder& v_order, FragmentDelta* delta,
                       MiningProfile* scratch_profile, RefitScratch* scratch) const;
  Status StageDelta(int64_t end_row, StopToken* stop, std::vector<FragmentDelta>* pending);
};

/// Rebuilds one fragment's regression inputs exactly as EvaluateSplit would
/// see them in the sorted aggregated table, and re-runs FitFragmentCandidate
/// per candidate. Cells order by (V values under `v_order`, a RowOrder over
/// Rep::v_cols, then group id): SortTable is stable and aggregated rows
/// appear in group discovery order, so the id tie-break reproduces its row
/// order byte-for-byte. Committed buckets already store that order, so only
/// the staged-new groups sort and merge in; a fragment dirtied by existing
/// groups alone reuses the stored order untouched. Writes only `delta`:
/// `merged` receives the full post-fold bucket when new ids exist (the
/// commit barrier moves it into the bucket) and stays empty otherwise.
/// Reads committed and staged state without changing it, so workers may
/// re-fit different fragments concurrently.
Status PatternMaintainer::Rep::RefitFragment(const RowOrder& v_order, FragmentDelta* delta,
                                             MiningProfile* scratch_profile,
                                             RefitScratch* scratch) const {
  const Table& base = *table;
  const GroupSetState& gs = *delta->group_set;
  const SplitPlan& plan = *delta->plan;
  const SplitState& split = *delta->split;
  const IncrementalGroupBy& groups = *gs.groups;
  const size_t nv = plan.v_pos.size();

  auto before = [&](int64_t ga, int64_t gb) {
    const int64_t ra = groups.RepresentativeRow(ga);
    const int64_t rb = groups.RepresentativeRow(gb);
    for (size_t k : split.v_keys) {
      const int cmp = v_order.CompareKey(k, ra, rb);
      if (cmp != 0) return cmp < 0;
    }
    return ga < gb;
  };

  auto bucket_it = split.buckets.find(delta->key);
  const std::vector<int64_t>* cells =
      bucket_it != split.buckets.end() ? &bucket_it->second : nullptr;
  if (!delta->new_ids.empty()) {
    std::vector<int64_t> sorted_new = delta->new_ids;
    std::sort(sorted_new.begin(), sorted_new.end(), before);
    if (cells == nullptr) {
      delta->merged = std::move(sorted_new);
    } else {
      delta->merged.reserve(cells->size() + sorted_new.size());
      std::merge(cells->begin(), cells->end(), sorted_new.begin(), sorted_new.end(),
                 std::back_inserter(delta->merged), before);
    }
    cells = &delta->merged;
  }

  // Below the local support threshold no candidate can hold (and support
  // only grows, so none held before either): FitFragmentCandidate would
  // early-return before fitting, and Finalize() recomputes the fragment and
  // support counters from bucket sizes. Skip the whole per-cell rebuild and
  // report "no local" for every candidate — tiny fragments dominate the
  // fragment count on high-cardinality splits, so this skip carries most of
  // the incremental-vs-scratch speedup.
  if (static_cast<int64_t>(cells->size()) < config.local_support_threshold) {
    delta->locals.assign(plan.candidates.size(), std::nullopt);
    return Status::OK();
  }

  // The fragment row reads the first sorted cell's representative base row —
  // the same cell EvaluateSplit's `data.GetValue(begin, c)` resolves to.
  Row fragment;
  fragment.reserve(plan.f_pos.size());
  const int64_t first_rep = groups.RepresentativeRow(cells->front());
  for (int p : plan.f_pos) {
    fragment.push_back(base.GetValue(first_rep, gs.plan.g_attrs[static_cast<size_t>(p)]));
  }

  // Constant models never read their predictor row (Predict ignores it), so
  // the X matrix is only materialized when a non-const candidate will
  // consume it; const-only splits carry empty placeholder rows instead.
  bool need_x = false;
  // analyzer:allow-next-line(cancellation) candidates are schema-bounded (agg x model)
  for (const SplitCandidate& candidate : plan.candidates) {
    if (candidate.pattern.model != ModelType::kConst) need_x = true;
  }

  const size_t ncells = cells->size();
  const size_t naggs = gs.plan.agg_cols.size();
  FragmentInputs& inputs = scratch->inputs;
  inputs.Reset(ncells, need_x ? nv : 0, naggs);
  if (need_x) {
    for (size_t i = 0; i < ncells; ++i) {
      const int64_t rep_row = groups.RepresentativeRow((*cells)[i]);
      std::vector<double>& x = inputs.x[i];
      for (size_t v = 0; v < nv; ++v) {
        const int attr = gs.plan.g_attrs[static_cast<size_t>(plan.v_pos[v])];
        x[v] = plan.v_is_numeric[v] ? base.column(attr).GetNumeric(rep_row) : 0.0;
      }
    }
  }
  for (size_t a = 0; a < naggs; ++a) {
    groups.AggregateNumericBatch(cells->data(), ncells, a, inputs.cell_value.data(),
                                 inputs.cell_valid.data());
    inputs.SetResponses(a);
  }

  const int64_t support = static_cast<int64_t>(ncells);
  delta->locals.reserve(plan.candidates.size());
  // analyzer:allow-next-line(cancellation) candidates are schema-bounded (agg x model)
  for (const SplitCandidate& candidate : plan.candidates) {
    CandidateMap& fits = scratch->fits;
    fits.clear();  // keeps its bucket array across candidates and deltas
    mining_internal::FitFragmentCandidate(fragment, inputs.X(candidate.agg),
                                          inputs.y[candidate.agg], support,
                                          candidate.pattern, config, scratch_profile, &fits);
    std::optional<LocalPattern> local;
    auto it = fits.find(candidate.pattern);
    if (it != fits.end() && !it->second.locals.empty()) {
      local.emplace(std::move(it->second.locals.front()));
    }
    delta->locals.push_back(std::move(local));
  }
  return Status::OK();
}

/// Everything of Absorb before the commit barrier, on ThreadPool::Global()
/// at config.num_threads workers. Phase A stages the group-table folds, one
/// group set per task; the sequential collection then lists every fragment
/// a touched group maps to, which fixes `pending`'s order; phase B re-fits
/// those fragments, each worker writing only the deltas it claimed. Leaves
/// all folds staged for the caller to commit or discard; touches no
/// committed state.
Status PatternMaintainer::Rep::StageDelta(int64_t end_row, StopToken* stop,
                                          std::vector<FragmentDelta>* pending) {
  ThreadPool& pool = ThreadPool::Global();
  ThreadPool::ParallelForOptions opts;
  opts.max_workers = std::max(config.num_threads, 1);
  if (stop != nullptr) opts.stop = *stop;

  // Phase A. Each IncrementalGroupBy folds its delta rows in order on one
  // worker, so its states extend the committed fold exactly as a serial
  // pass would: no partial sums are merged.
  CAPE_RETURN_IF_ERROR(pool.ParallelFor(
      static_cast<int64_t>(group_sets.size()), opts,
      [&](int /*worker*/, int64_t begin, int64_t end, StopToken* worker_stop) -> Status {
        for (int64_t i = begin; i < end; ++i) {
          CAPE_RETURN_IF_ERROR(
              group_sets[static_cast<size_t>(i)].groups->PrepareFold(end_row, worker_stop));
        }
        return Status::OK();
      }));

  // Cell-key segments of the touched groups' representative rows, rebuilt
  // per group-set: every split's fragment key concatenates a subset of the
  // group-set's cell keys, so the base-table cells are encoded once per
  // touched group instead of once per (group, split) pair.
  std::string seg_pool;
  std::vector<size_t> seg_off;  // (ncols + 1) boundaries per touched id
  std::unordered_map<std::string, std::vector<int64_t>> dirty;  // reused per split
  for (GroupSetState& gs : group_sets) {
    CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    const int64_t committed = gs.groups->num_groups();
    const std::vector<int64_t>& touched = gs.groups->staged_touched();
    if (touched.empty()) continue;
    const size_t ncols = gs.plan.g_attrs.size();
    seg_pool.clear();
    seg_off.clear();
    seg_off.reserve(touched.size() * (ncols + 1));
    for (int64_t id : touched) {
      const int64_t rep_row = gs.groups->RepresentativeRow(id);
      for (size_t c = 0; c < ncols; ++c) {
        seg_off.push_back(seg_pool.size());
        AppendCellKey(*table, rep_row, gs.plan.g_attrs[c], &seg_pool);
      }
      seg_off.push_back(seg_pool.size());
    }
    for (size_t s = 0; s < gs.splits.size(); ++s) {
      const SplitPlan& plan = gs.plan.splits[s];
      // Touched groups, partitioned by this split's fragment key. New ids
      // arrive in first-touch order (ascending), committed dirty groups mark
      // their fragment with an (empty) entry. Map order is irrelevant: every
      // delta is independent and commits by fragment key.
      dirty.clear();  // bucket array survives, sized by earlier splits
      dirty.reserve(touched.size());
      std::string key;
      for (size_t i = 0; i < touched.size(); ++i) {
        key.clear();
        const size_t base = i * (ncols + 1);
        for (int p : plan.f_pos) {
          const size_t at = base + static_cast<size_t>(p);
          key.append(seg_pool.data() + seg_off[at], seg_off[at + 1] - seg_off[at]);
        }
        auto [it, inserted] = dirty.try_emplace(key);
        (void)inserted;
        if (touched[i] >= committed) it->second.push_back(touched[i]);
      }
      // analyzer:allow-next-line(unordered-iteration) deltas commit by key
      for (auto& [fkey, new_ids] : dirty) {
        FragmentDelta& delta = pending->emplace_back();
        delta.group_set = &gs;
        delta.plan = &plan;
        delta.split = &gs.splits[s];
        delta.key = fkey;
        delta.new_ids = std::move(new_ids);
      }
    }
  }

  // Phase B. Dictionaries grow with appends, so string V columns are ranked
  // once per delta here rather than once per fragment.
  std::vector<SortKey> v_keys;
  for (int c : v_cols) v_keys.push_back(SortKey{c, true});
  const RowOrder v_order(*table, v_keys);
  const int64_t n = static_cast<int64_t>(pending->size());
  opts.grain = 8;  // most fragments are below support and cost a bucket probe
  const int workers = pool.PlannedWorkers(n, opts);
  std::vector<RefitScratch> scratch(static_cast<size_t>(workers));
  // FitFragmentCandidate's timers; discarded.
  std::vector<MiningProfile> scratch_profiles(static_cast<size_t>(workers));
  return pool.ParallelFor(
      n, opts, [&](int worker, int64_t begin, int64_t end, StopToken* worker_stop) -> Status {
        const size_t w = static_cast<size_t>(worker);
        for (int64_t i = begin; i < end; ++i) {
          CAPE_RETURN_IF_STOPPED_BLOCK(worker_stop);
          CAPE_RETURN_IF_ERROR(RefitFragment(v_order, &(*pending)[static_cast<size_t>(i)],
                                             &scratch_profiles[w], &scratch[w]));
        }
        return Status::OK();
      });
}

PatternMaintainer::PatternMaintainer(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
PatternMaintainer::~PatternMaintainer() = default;

int64_t PatternMaintainer::rows_folded() const { return rep_->rows_folded; }
uint64_t PatternMaintainer::config_digest() const { return rep_->config_digest; }
const MaintenanceStats& PatternMaintainer::stats() const { return rep_->stats; }

void PatternMaintainer::set_num_threads(int num_threads) {
  rep_->config.num_threads = std::max(num_threads, 1);
}

Result<std::unique_ptr<PatternMaintainer>> PatternMaintainer::Build(
    TablePtr table, const MiningConfig& config, StopToken* stop) {
  if (table == nullptr) {
    return Status::InvalidArgument("PatternMaintainer requires a table");
  }
  if (!table->rows_resident()) {
    return Status::NotImplemented(
        "incremental maintenance requires resident rows; paged tables re-mine from "
        "scratch");
  }
  if (config.use_fd_optimizations) {
    return Status::NotImplemented(
        "incremental maintenance with FD optimizations is not supported: FD-based "
        "skips change the candidate space as data grows");
  }
  if (config.approx_sample_rows > 0) {
    return Status::NotImplemented(
        "approximate (sampled) mining is not incrementally maintainable; re-mine "
        "from scratch");
  }

  auto rep = std::make_unique<Rep>();
  rep->table = table;
  rep->config = config;
  rep->config_digest = MiningConfigDigest(config);
  const Schema& schema = *table->schema();
  const AttrSet allowed = mining_internal::AllowedAttrs(schema, config);
  for (int a : allowed.ToIndices()) {
    const DataType type = schema.field(a).type;
    if (type == DataType::kDouble) rep->nan_guard_cols.push_back(a);
    if (IsNumericType(type) || !config.require_numeric_predictors) rep->v_cols.push_back(a);
  }

  CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                        mining_internal::EnumerateGroupSets(schema, config));
  for (AttrSet g : group_sets) {
    GroupSetState gs;
    gs.plan = mining_internal::PlanGroup(*table, g, config);
    if (gs.plan.agg_cols.empty()) continue;
    CAPE_ASSIGN_OR_RETURN(gs.groups,
                          IncrementalGroupBy::Make(table, gs.plan.g_attrs, gs.plan.specs));
    gs.splits.resize(gs.plan.splits.size());
    for (size_t s = 0; s < gs.splits.size(); ++s) {
      gs.splits[s].locals.resize(gs.plan.splits[s].candidates.size());
      for (int p : gs.plan.splits[s].v_pos) {
        const int attr = gs.plan.g_attrs[static_cast<size_t>(p)];
        gs.splits[s].v_keys.push_back(static_cast<size_t>(
            std::lower_bound(rep->v_cols.begin(), rep->v_cols.end(), attr) -
            rep->v_cols.begin()));
      }
    }
    rep->group_sets.push_back(std::move(gs));
  }

  std::unique_ptr<PatternMaintainer> maintainer(new PatternMaintainer(std::move(rep)));
  CAPE_RETURN_IF_ERROR(maintainer->Absorb(stop));
  return maintainer;
}

Status PatternMaintainer::Absorb(StopToken* stop) {
  Rep& rep = *rep_;
  const int64_t end_row = rep.table->num_rows();
  if (end_row < rep.rows_folded) {
    return Status::InvalidArgument(
        "maintained table shrank from " + std::to_string(rep.rows_folded) + " to " +
        std::to_string(end_row) + " rows; rebuild the maintainer");
  }
  if (end_row == rep.rows_folded) return Status::OK();

  // NaN in an eligible double attribute breaks byte-stable fragment identity
  // (cell keys separate NaN bit patterns that RowOrder treats as one value);
  // hand the whole table back to the from-scratch path.
  for (int col : rep.nan_guard_cols) {
    const Column& c = rep.table->column(col);
    for (int64_t row = rep.rows_folded; row < end_row; ++row) {
      if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      if (!c.IsNull(row) && std::isnan(c.GetDouble(row))) {
        return Status::NotImplemented(
            "NaN in attribute '" + rep.table->schema()->field(col).name +
            "' row " + std::to_string(row) +
            ": incremental maintenance cannot order NaN fragments; re-mine from "
            "scratch");
      }
    }
  }

  std::vector<FragmentDelta> pending;
  Status staged = rep.StageDelta(end_row, stop, &pending);
  if (!staged.ok()) {
    rep.DiscardAllFolds();
    return staged;
  }

#ifndef CAPE_DISABLE_FAILPOINTS
  // Commit barrier: a fault injected here proves the all-or-nothing
  // contract — every staged fold is discarded, the maintainer stays at its
  // previous fold point, and the caller degrades to a full re-mine instead
  // of ever publishing a half-merged state.
  if (CAPE_PREDICT_FALSE(failpoint::AnyActive())) {
    Status injected = failpoint::Trigger("incremental.merge");
    if (!injected.ok()) {
      rep.DiscardAllFolds();
      return injected;
    }
  }
#endif

  // Commit. Nothing below allocates in a way that can fail halfway into a
  // observable state: group folds publish by move, bucket/local updates are
  // per-fragment and idempotent re Finalize().
  for (GroupSetState& gs : rep.group_sets) {
    const int64_t committed = gs.groups->num_groups();
    for (int64_t id : gs.groups->staged_touched()) {
      rep.stats.groups_touched += 1;
      if (id >= committed) rep.stats.groups_created += 1;
    }
    gs.groups->CommitFold();
  }
  for (FragmentDelta& delta : pending) {
    if (!delta.new_ids.empty()) {
      // Maintain the split's supported-fragment count as the bucket grows
      // past the threshold (support never shrinks), sparing Finalize() a
      // full scan over every bucket of every split.
      std::vector<int64_t>& bucket = delta.split->buckets[delta.key];
      const int64_t threshold = rep.config.local_support_threshold;
      if (static_cast<int64_t>(bucket.size()) < threshold &&
          static_cast<int64_t>(delta.merged.size()) >= threshold) {
        delta.split->num_supported += 1;
      }
      bucket = std::move(delta.merged);
    }
    rep.stats.fragments_refit += 1;
    for (size_t c = 0; c < delta.split->locals.size(); ++c) {
      rep.stats.candidates_revalidated += 1;
      std::map<std::string, LocalPattern>& locals = delta.split->locals[c];
      if (delta.locals[c].has_value()) {
        auto [it, inserted] =
            locals.insert_or_assign(delta.key, std::move(*delta.locals[c]));
        (void)it;
        if (inserted) {
          rep.stats.locals_added += 1;
        } else {
          rep.stats.locals_replaced += 1;
        }
      } else if (locals.erase(delta.key) > 0) {
        rep.stats.locals_dropped += 1;
      }
    }
  }

  rep.stats.batches_absorbed += 1;
  rep.stats.rows_absorbed += end_row - rep.rows_folded;
  rep.rows_folded = end_row;
  return Status::OK();
}

PatternSet PatternMaintainer::Finalize() const {
  const Rep& rep = *rep_;
  CandidateMap candidates;
  for (const GroupSetState& gs : rep.group_sets) {
    for (size_t s = 0; s < gs.splits.size(); ++s) {
      const SplitState& split = gs.splits[s];
      if (split.buckets.empty()) continue;
      const std::vector<SplitCandidate>& plan_candidates = gs.plan.splits[s].candidates;
      // analyzer:allow-next-line(cancellation) candidates are schema-bounded (agg x model)
      for (size_t c = 0; c < plan_candidates.size(); ++c) {
        CandidateStats stats;
        stats.pattern = plan_candidates[c].pattern;
        stats.num_fragments = static_cast<int64_t>(split.buckets.size());
        stats.num_supported = split.num_supported;
        stats.num_holding = static_cast<int64_t>(split.locals[c].size());
        for (const auto& [key, local] : split.locals[c]) {
          if (local.max_positive_dev > stats.max_positive_dev) {
            stats.max_positive_dev = local.max_positive_dev;
          }
          if (local.min_negative_dev < stats.min_negative_dev) {
            stats.min_negative_dev = local.min_negative_dev;
          }
          stats.locals.push_back(local);
        }
        candidates.emplace(plan_candidates[c].pattern, std::move(stats));
      }
    }
  }
  return mining_internal::FinalizePatterns(std::move(candidates), rep.config);
}

}  // namespace cape
