#include "explain/explainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "explain/explain_session.h"
#include "explain/explainer_internal.h"
#include "relational/kernels.h"

namespace cape {

namespace {

using explain_internal::AggDataCache;
using explain_internal::AggKey;
using explain_internal::SharedState;

/// Stable identity of a candidate explanation. The paper deduplicates per
/// (P', t'); we deduplicate per counterbalance tuple t' (attrs + values),
/// which additionally collapses the case where the same tuple is reachable
/// through different predictor splits (e.g. [author,venue]:year and
/// [author,year]:venue both yield (AX, ICDE, 2007)) — the displayed tables
/// in the paper contain each tuple once.
std::string CandidateKey(const Explanation& e) {
  std::string key = std::to_string(e.tuple_attrs.bits());
  key.push_back('|');
  key += EncodeRowKey(e.tuple_values);
  return key;
}

/// Deterministic identity of one candidate in the scoring stream: the
/// (P, P') pair's position in the deterministically-ordered pair list plus
/// the tuple's row inside that pair's aggregated data. When two candidates
/// for the same tuple tie on score, the lower rank wins — a rule that
/// depends only on the *set* of candidates scored, never on the order the
/// workers happened to score them, which is what keeps the retained
/// Explanation (and hence the rendered output) identical at any thread
/// count.
struct CandidateRank {
  int64_t pair = 0;
  int64_t row = 0;
};

bool RankLess(const CandidateRank& a, const CandidateRank& b) {
  if (a.pair != b.pair) return a.pair < b.pair;
  return a.row < b.row;
}

/// The best explanation per counterbalance tuple, bounded to the k best
/// tuples: at most k entries, ordered by score descending, then CandidateKey
/// ascending. A tuple seen again keeps its higher-scoring explanation; on a
/// score tie the lower CandidateRank wins. Insert is O(log k).
///
/// Invariant: the pool holds exactly the first k entries an unbounded
/// per-tuple-best pool would hold. An evicted tuple left k entries strictly
/// ahead of it, and the k-th entry only ever rises, so a later candidate for
/// that tuple re-enters only with a higher score — exactly when it would
/// have entered the top k of the unbounded pool too. Each scoring worker
/// owns one pool (no locks on the Add path); when a `floor` is attached,
/// every update that changes a full pool's threshold publishes it to the
/// shared monotone floor so other workers prune against it too.
class CandidatePool {
 public:
  CandidatePool(int k, SharedScoreFloor* floor) : k_(k), floor_(floor) {}

  void Add(Explanation e, CandidateRank rank) {
    std::string key = CandidateKey(e);
    Insert(std::move(key), std::move(e), rank);
  }

  /// Folds another pool's entries into this one (used for the final merge;
  /// both pools must share the same k). The union of the workers' top k
  /// holds the top k of all their candidates, so this touches k entries
  /// per worker.
  void Merge(const CandidatePool& other) {
    for (const Entry& entry : other.order_) Insert(entry.key, entry.explanation, entry.rank);
  }

  bool Full() const { return static_cast<int>(order_.size()) >= k_; }

  /// Lowest score still inside the top-k, or -inf when not yet full.
  double Threshold() const {
    if (!Full()) return -std::numeric_limits<double>::infinity();
    return order_.rbegin()->score;
  }

  std::vector<Explanation> TopK() const {
    std::vector<Explanation> out;
    out.reserve(order_.size());
    for (const Entry& entry : order_) out.push_back(entry.explanation);
    return out;
  }

 private:
  struct Entry {
    double score;
    std::string key;
    // Not part of the order: a same-score, lower-rank candidate for the same
    // tuple replaces them in place.
    mutable Explanation explanation;
    mutable CandidateRank rank;
  };
  /// Score descending, then CandidateKey ascending (deterministic tie-break).
  static bool Ahead(double score, const std::string& key, const Entry& other) {
    if (score != other.score) return score > other.score;
    return key < other.key;
  }
  struct Order {
    bool operator()(const Entry& a, const Entry& b) const { return Ahead(a.score, a.key, b); }
  };
  using Entries = std::set<Entry, Order>;

  void Insert(std::string key, Explanation e, CandidateRank rank) {
    const double score = e.score;
    auto held = index_.find(key);
    if (held != index_.end()) {
      const Entry& entry = *held->second;
      if (score < entry.score) return;
      if (score == entry.score) {
        // Same tuple, same score, different (P, P') or row: deterministic
        // winner regardless of insertion order.
        if (RankLess(rank, entry.rank)) {
          entry.explanation = std::move(e);
          entry.rank = rank;
        }
        return;
      }
      const Entries::iterator old = held->second;
      index_.erase(held);
      order_.erase(old);
    } else if (Full()) {
      const Entries::iterator worst = std::prev(order_.end());
      if (!Ahead(score, key, *worst)) return;
      index_.erase(std::string_view(worst->key));
      order_.erase(worst);
    }
    const Entries::iterator it =
        order_.insert(Entry{score, std::move(key), std::move(e), rank}).first;
    index_.emplace(std::string_view(it->key), it);
    Publish();
  }

  void Publish() {
    if (floor_ != nullptr && Full()) floor_->RaiseTo(Threshold());
  }

  int k_;
  SharedScoreFloor* floor_;
  Entries order_;
  // Keys view the strings inside order_'s nodes, which never move.
  std::unordered_map<std::string_view, Entries::iterator> index_;
};

/// Relevant patterns (Definition 5) restricted to the question's aggregate:
/// F ∪ V ⊆ G and the pattern holds locally on t[F].
std::vector<const GlobalPattern*> FindRelevantPatterns(const UserQuestion& q,
                                                       const PatternSet& patterns) {
  std::vector<const GlobalPattern*> out;
  for (const GlobalPattern& gp : patterns.patterns()) {
    const Pattern& p = gp.pattern;
    if (p.agg != q.agg || p.agg_attr != q.agg_attr) continue;
    if (!q.group_attrs.ContainsAll(p.GroupAttrs())) continue;
    if (gp.FindLocal(q.ProjectGroupValues(p.partition_attrs)) == nullptr) continue;
    out.push_back(&gp);
  }
  return out;
}

/// NORM of Definition 10: the question's own aggregate at the relevant
/// pattern's granularity, π_{agg(A)}(σ_{F=t[F] ∧ V=t[V]}(γ_{F∪V,agg(A)}(R))).
Result<double> ComputeNorm(const UserQuestion& q, const Pattern& p, StopToken* stop) {
  CAPE_FAILPOINT("explain.norm");
  std::vector<std::pair<int, Value>> conditions;
  const std::vector<int> gp_attrs = p.GroupAttrs().ToIndices();
  const Row gp_values = q.ProjectGroupValues(p.GroupAttrs());
  for (size_t i = 0; i < gp_attrs.size(); ++i) {
    conditions.emplace_back(gp_attrs[i], gp_values[i]);
  }
  AggregateSpec spec;
  spec.func = p.agg;
  spec.input_col = p.agg_attr;
  spec.output_name = "agg";
  // Fused σ→γ over the whole relation: one block scan, no filtered table.
  CAPE_ASSIGN_OR_RETURN(TablePtr aggregated,
                        FilterGroupAggregate(*q.relation, conditions,
                                             std::vector<int>{}, {spec}, stop));
  const Value v = aggregated->GetValue(0, 0);
  return v.is_null() ? 0.0 : v.AsDouble();
}

/// dev↑(φ, P'): the largest counterbalancing deviation any tuple of P' can
/// have; <= 0 means no tuple can counterbalance the question's direction.
double DeviationUpperBound(const GlobalPattern& gp, Direction dir) {
  return dir == Direction::kLow ? gp.max_positive_dev : -gp.min_negative_dev;
}

double LocalDeviationUpperBound(const LocalPattern& local, Direction dir) {
  return dir == Direction::kLow ? local.max_positive_dev : -local.min_negative_dev;
}

/// Records an early stop: the result keeps the best explanations found so
/// far and reports which stage the deadline/cancellation interrupted.
void MarkPartial(ExplainResult* result, StopReason reason, const char* stage) {
  result->partial = true;
  result->stop_reason = reason;
  result->stopped_stage = stage;
}

/// One (P, P') scoring unit. `bound` is score↑(φ, P, P') from Section 3.5
/// (0 for the naive generator, which never prunes); `rank` is the unit's
/// position in the deterministically-ordered pair list.
struct PairTask {
  const GlobalPattern* relevant = nullptr;
  const GlobalPattern* refinement = nullptr;
  double norm = 0.0;
  double bound = 0.0;
};

AggKey AggKeyOf(const Pattern& refinement) {
  return AggKey{refinement.GroupAttrs().bits(), refinement.agg, refinement.agg_attr};
}

/// Scans all candidate tuples t' for one (P, P') pair, adding every valid
/// explanation (Definition 7) to the worker's pool. When `prune_locals` is
/// set, fragments whose local deviation bound cannot beat the shared score
/// floor are skipped (the "more accurate bound" of Section 3.5). The floor
/// comparison is strict: a fragment that could still *tie* the k-th best
/// score is always scanned, which is what makes the pruned set — and hence
/// the final top-k — independent of thread count and timing.
Status EvaluatePair(const UserQuestion& q, const PairTask& pair, const Table* data,
                    const DistanceModel& distance_model, const ExplainConfig& config,
                    bool prune_locals, int64_t pair_rank, const SharedScoreFloor* floor,
                    CandidatePool* pool, ExplainProfile* profile, StopToken* stop) {
  CAPE_FAILPOINT("explain.refine");
  const GlobalPattern& refinement = *pair.refinement;
  const Pattern& p = pair.relevant->pattern;
  const Pattern& pp = refinement.pattern;
  const AttrSet attrs = pp.GroupAttrs();  // F' ∪ V  (`data` is γ over it)
  const double norm = pair.norm;

  const std::vector<int> attr_list = attrs.ToIndices();
  const int agg_col = static_cast<int>(attr_list.size());
  std::vector<int> f_positions;        // P.F inside attr_list
  std::vector<int> f_prime_positions;  // P'.F' inside attr_list
  std::vector<int> v_positions;        // V inside attr_list
  for (size_t i = 0; i < attr_list.size(); ++i) {
    if (p.partition_attrs.Contains(attr_list[i])) f_positions.push_back(static_cast<int>(i));
    if (pp.partition_attrs.Contains(attr_list[i])) {
      f_prime_positions.push_back(static_cast<int>(i));
    }
    if (pp.predictor_attrs.Contains(attr_list[i])) v_positions.push_back(static_cast<int>(i));
  }
  const Row t_f = q.ProjectGroupValues(p.partition_attrs);
  const bool same_schema = attrs == q.group_attrs;
  const double isLow = q.dir == Direction::kLow ? 1.0 : -1.0;
  const double norm_denominator = std::fabs(norm) + config.epsilon;
  const double distance_lb = distance_model.LowerBound(q.group_attrs, attrs);

  // Condition (4) matchers, compiled once per (P, P') pair: string condition
  // values translate to dictionary codes here, so the per-row checks below
  // are integer compares instead of boxed Value comparisons.
  std::vector<std::pair<int, Value>> f_conditions;
  f_conditions.reserve(f_positions.size());
  for (size_t i = 0; i < f_positions.size(); ++i) {
    f_conditions.emplace_back(f_positions[i], t_f[i]);
  }
  const BlockPredicate f_block(*data, f_conditions);
  if (f_block.never_matches()) return Status::OK();  // no tuple has t'[F] = t[F]

  std::vector<std::pair<int, Value>> t_conditions;
  if (same_schema) {
    t_conditions.reserve(attr_list.size());
    for (size_t i = 0; i < attr_list.size(); ++i) {
      t_conditions.emplace_back(static_cast<int>(i), q.group_values[i]);
    }
  }
  const RowEqualityMatcher t_matcher(*data, t_conditions);
  const bool check_same_tuple = same_schema && !t_matcher.never_matches();

  // Predictor columns feed the local model's X vector; non-numeric predictors
  // contribute a 0.0 placeholder (the constant model ignores X, and that is
  // the only model fitted over string predictors).
  std::vector<bool> v_is_numeric;
  v_is_numeric.reserve(v_positions.size());
  for (int pos : v_positions) {
    v_is_numeric.push_back(IsNumericType(data->column(pos).type()));
  }

  std::string fragment_key;  // reused across rows; same bytes as EncodeRowKey
  // Conditions (3) and (5) plus candidate emission for one row that already
  // passed condition (4)'s F-match (the block scan below).
  auto score_row = [&](int64_t row) {
    // Condition (4): t' != t when over the same schema.
    if (check_same_tuple && t_matcher.Matches(row)) return;
    if (data->column(agg_col).IsNull(row)) return;

    // Condition (3): P' holds locally on t'[F'].
    fragment_key.clear();
    AppendTableRowKey(*data, row, f_prime_positions, &fragment_key);
    const LocalPattern* local = refinement.FindLocalByKey(fragment_key);
    if (local == nullptr) return;

    if (prune_locals) {
      const double local_bound = LocalDeviationUpperBound(*local, q.dir) /
                                 ((distance_lb + config.epsilon) * norm_denominator);
      if (local_bound < floor->Get()) return;
    }

    // Condition (5): deviation in the opposite direction.
    std::vector<double> x;
    x.reserve(v_positions.size());
    for (size_t i = 0; i < v_positions.size(); ++i) {
      x.push_back(v_is_numeric[i] ? data->column(v_positions[i]).GetNumeric(row) : 0.0);
    }
    const double predicted = local->model->Predict(x);
    const double y = data->column(agg_col).GetNumeric(row);
    if (q.dir == Direction::kLow ? y <= predicted : y >= predicted) return;
    profile->num_candidates += 1;

    // The score with distance_lb in place of the distance bounds this
    // candidate's score from above (distance >= distance_lb, both rounded
    // monotonically). Below the pool's k-th entry it can never enter the
    // pool, so it is not boxed at all. Strict, like every prune here.
    const double deviation = y - predicted;
    if ((deviation * isLow) / ((distance_lb + config.epsilon) * norm_denominator) <
        pool->Threshold()) {
      return;
    }

    Explanation e;
    e.relevant_pattern = p;
    e.refinement_pattern = pp;
    e.tuple_attrs = attrs;
    e.tuple_values.reserve(attr_list.size());
    for (size_t i = 0; i < attr_list.size(); ++i) {
      e.tuple_values.push_back(data->GetValue(row, static_cast<int>(i)));
    }
    e.agg_value = y;
    e.predicted = predicted;
    e.deviation = deviation;
    e.distance =
        distance_model.Distance(q.group_attrs, q.group_values, attrs, e.tuple_values);
    e.norm = norm;
    e.score = (e.deviation * isLow) / ((e.distance + config.epsilon) * norm_denominator);
    pool->Add(std::move(e), CandidateRank{pair_rank, row});
  };

  // Condition (4)'s F-match evaluates block-at-a-time into a byte mask;
  // the scalar scoring above runs only on surviving rows, in ascending row
  // order, so candidate ranks follow the rows.
  return ScanChunks(*data, stop, [&](const PageView& view) -> Status {
    uint8_t mask[kKernelBlockSize];
    for (int b = 0; b < view.row_count; b += static_cast<int>(kKernelBlockSize)) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      const int bn = std::min<int>(static_cast<int>(kKernelBlockSize), view.row_count - b);
      profile->num_tuples_checked += bn;
      f_block.EvalChunk(view.cols, b, bn, mask);
      for (int i = 0; i < bn; ++i) {
        if (mask[i] != 0) score_row(view.row_begin + b + i);
      }
    }
    return Status::OK();
  });
}

/// Shared implementation of both generators (Section 3), for one-shot and
/// session calls alike: `shared` is the explain state of (q.relation,
/// patterns). The relevant-pattern search and NORM queries run inline; the
/// (P, P') scoring units are then partitioned across the shared ThreadPool
/// — each worker scores into its own CandidatePool against a shared
/// monotone score floor, building missing γ tables on demand, and the
/// per-worker pools are merged at the end. `optimized` enables the Section
/// 3.5 ordering and pruning (EXPL-GEN-OPT); the naive generator scores every
/// pair in enumeration order.
///
/// Determinism (DESIGN.md §9): the pair list and every per-candidate tie-
/// break are deterministic, the floor is monotone and only ever below the
/// true top-k threshold, and pruning is strict (`bound < floor`), so any
/// candidate that could enter — or tie into — the final top-k is scored by
/// every run. The merged top-k is therefore byte-identical at any thread
/// count.
Result<ExplainResult> RunExplain(const UserQuestion& q, const PatternSet& patterns,
                                 SharedState* shared, const DistanceModel& distance,
                                 const ExplainConfig& config, bool optimized) {
  if (config.top_k < 1) return Status::InvalidArgument("top_k must be >= 1");
  ExplainResult result;
  Stopwatch total;
  StopToken stop = config.MakeStopToken();
  const bool prune_pairs = optimized && config.prune_pairs;
  const bool prune_locals = optimized && config.prune_locals;

  // Stage 1 (inline): relevant patterns, NORM per relevant pattern, and the
  // (P, P') pair list with Section 3.5 score upper bounds. The state's
  // adjacency lists keep enumeration order, so the pair list is the one a
  // scan of the whole pattern set would produce.
  const std::vector<GlobalPattern>& all = patterns.patterns();
  std::vector<PairTask> pairs;
  const auto relevant = FindRelevantPatterns(q, patterns);
  result.profile.num_relevant_patterns = static_cast<int64_t>(relevant.size());
  for (const GlobalPattern* p : relevant) {
    auto norm_result = ComputeNorm(q, p->pattern, &stop);
    if (!norm_result.ok()) {
      if (norm_result.status().IsStop()) {
        MarkPartial(&result, stop.reason(), "norm");
        break;
      }
      return norm_result.status();
    }
    const double norm = norm_result.ValueOrDie();
    const double norm_denominator = std::fabs(norm) + config.epsilon;
    for (int64_t j : shared->refinements[static_cast<size_t>(p - all.data())]) {
      const GlobalPattern& pp = all[static_cast<size_t>(j)];
      result.profile.num_refinement_pairs += 1;
      double bound = 0.0;
      if (optimized) {
        const double dev_up = DeviationUpperBound(pp, q.dir);
        const double d_lb = distance.LowerBound(q.group_attrs, pp.pattern.GroupAttrs());
        bound = dev_up <= 0.0 ? 0.0 : dev_up / ((d_lb + config.epsilon) * norm_denominator);
      }
      pairs.push_back(PairTask{p, &pp, norm, bound});
    }
  }
  // Decreasing bound order raises the floor as early as possible. The sort
  // is stable so equal bounds keep their deterministic enumeration order —
  // a pair's position is its candidates' tie-break rank.
  if (optimized) {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const PairTask& a, const PairTask& b) { return a.bound > b.bound; });
  }

  // Stage 2 (parallel): partition the pairs across workers. A run already
  // stopped in stage 1 skips scoring entirely (matching the sequential
  // semantics: a "norm" stop reports no scored candidates).
  if (!result.partial && !pairs.empty()) {
    ThreadPool& pool_exec = ThreadPool::Global();
    ThreadPool::ParallelForOptions opts;
    opts.max_workers = std::max(config.num_threads, 1);
    opts.grain = 1;  // one (P, P') scan per claim — work units are coarse
    opts.stop = stop;
    const int workers = pool_exec.PlannedWorkers(static_cast<int64_t>(pairs.size()), opts);

    SharedScoreFloor floor;
    std::vector<CandidatePool> pools;
    pools.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) pools.emplace_back(config.top_k, &floor);
    std::vector<ExplainProfile> profiles(static_cast<size_t>(workers));
    AggDataCache* cache = &shared->agg_cache;

    // Workers build missing γ tables on demand. One that needs a table
    // another worker is building waits for it: meanwhile the floor rises,
    // so a question builds only the tables of pairs it actually scans.
    Status scored = pool_exec.ParallelFor(
        static_cast<int64_t>(pairs.size()), opts,
        [&](int worker, int64_t begin, int64_t end, StopToken* worker_stop) -> Status {
          ExplainProfile& profile = profiles[static_cast<size_t>(worker)];
          ScopedTimer cpu(&profile.cpu_ns);
          for (int64_t i = begin; i < end; ++i) {
            const PairTask& pair = pairs[static_cast<size_t>(i)];
            if (prune_pairs && pair.bound < floor.Get()) {
              profile.num_pairs_pruned += 1;
              continue;
            }
            CAPE_ASSIGN_OR_RETURN(TablePtr data,
                                  cache->Get(AggKeyOf(pair.refinement->pattern), worker_stop));
            CAPE_RETURN_IF_ERROR(EvaluatePair(q, pair, data.get(), distance, config,
                                              prune_locals, i, &floor,
                                              &pools[static_cast<size_t>(worker)], &profile,
                                              worker_stop));
          }
          return Status::OK();
        });
    if (!scored.ok()) {
      if (!scored.IsStop()) return scored;
      MarkPartial(&result, StopReasonFromStatus(scored), "refine");
    }

    CandidatePool merged(config.top_k, nullptr);
    for (const CandidatePool& pool : pools) merged.Merge(pool);
    result.explanations = merged.TopK();
    for (const ExplainProfile& profile : profiles) {
      result.profile.cpu_ns += profile.cpu_ns;
      result.profile.num_pairs_pruned += profile.num_pairs_pruned;
      result.profile.num_tuples_checked += profile.num_tuples_checked;
      result.profile.num_candidates += profile.num_candidates;
    }
  }

  result.profile.total_ns = total.ElapsedNanos();
  return result;
}

/// A standalone generator call has no engine to keep a state warm, so it
/// answers from a throwaway one over the caller's (borrowed) pattern set.
Result<ExplainResult> ExplainOnce(const UserQuestion& q, const PatternSet& patterns,
                                  const DistanceModel& distance, const ExplainConfig& config,
                                  bool optimized) {
  if (q.relation == nullptr) return Status::InvalidArgument("question has no relation");
  const ExplainState state(q.relation,
                           std::shared_ptr<const PatternSet>(std::shared_ptr<void>(), &patterns));
  return state.Explain(q, distance, config, optimized);
}

/// EXPL-GEN-NAIVE (Algorithm 1).
class NaiveExplainer final : public ExplanationGenerator {
 public:
  std::string name() const override { return "EXPL-GEN-NAIVE"; }

  Result<ExplainResult> Explain(const UserQuestion& q, const PatternSet& patterns,
                                const DistanceModel& distance,
                                const ExplainConfig& config) override {
    return ExplainOnce(q, patterns, distance, config, /*optimized=*/false);
  }
};

/// EXPL-GEN-OPT (Section 3.5).
class OptimizedExplainer final : public ExplanationGenerator {
 public:
  std::string name() const override { return "EXPL-GEN-OPT"; }

  Result<ExplainResult> Explain(const UserQuestion& q, const PatternSet& patterns,
                                const DistanceModel& distance,
                                const ExplainConfig& config) override {
    return ExplainOnce(q, patterns, distance, config, /*optimized=*/true);
  }
};

}  // namespace

namespace explain_internal {

SharedState::SharedState(const Table& relation, const PatternSet& patterns)
    : agg_cache(relation) {
  // Definition 6 needs equal V, agg and A, so only patterns sharing that
  // signature can refine each other: bucket by it (indices ascending), then
  // test F' ⊇ F within the bucket.
  const std::vector<GlobalPattern>& all = patterns.patterns();
  std::map<std::tuple<uint64_t, AggFunc, int>, std::vector<int64_t>> buckets;
  auto signature = [](const Pattern& p) {
    return std::make_tuple(p.predictor_attrs.bits(), p.agg, p.agg_attr);
  };
  for (size_t j = 0; j < all.size(); ++j) {
    buckets[signature(all[j].pattern)].push_back(static_cast<int64_t>(j));
  }
  refinements.resize(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    for (int64_t j : buckets[signature(all[i].pattern)]) {
      if (all[static_cast<size_t>(j)].pattern.IsRefinementOf(all[i].pattern)) {
        refinements[i].push_back(j);
      }
    }
  }
}

}  // namespace explain_internal

ExplainState::ExplainState(TablePtr relation, std::shared_ptr<const PatternSet> patterns)
    : relation_(std::move(relation)), patterns_(std::move(patterns)),
      shared_(std::make_unique<explain_internal::SharedState>(*relation_, *patterns_)) {}

// Out of line: SharedState is incomplete in the header (pimpl).
ExplainState::~ExplainState() = default;

Result<ExplainResult> ExplainState::Explain(const UserQuestion& question,
                                            const DistanceModel& distance,
                                            const ExplainConfig& config, bool optimized) const {
  if (question.relation != relation_) {
    // The γ tables are computed over relation_; serving another table from
    // them would be silently wrong, so reject instead.
    return Status::InvalidArgument(
        "the explain state answers questions over one relation; this question targets "
        "another table");
  }
  return RunExplain(question, *patterns_, shared_.get(), distance, config, optimized);
}

size_t ExplainState::num_agg_tables() const { return shared_->agg_cache.num_entries(); }

std::unique_ptr<ExplanationGenerator> MakeNaiveExplainer() {
  return std::make_unique<NaiveExplainer>();
}

std::unique_ptr<ExplanationGenerator> MakeOptimizedExplainer() {
  return std::make_unique<OptimizedExplainer>();
}

}  // namespace cape
