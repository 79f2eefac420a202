#ifndef CAPE_EXPLAIN_EXPLAIN_SESSION_H_
#define CAPE_EXPLAIN_EXPLAIN_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "explain/distance.h"
#include "explain/explainer.h"
#include "explain/user_question.h"
#include "pattern/pattern_set.h"
#include "relational/table.h"

namespace cape::explain_internal {
// Defined in explainer_internal.h; held behind a unique_ptr so this public
// header never includes an internal one (tools/lint.py internal-include rule).
struct SharedState;
}  // namespace cape::explain_internal

namespace cape {

/// The question-independent work of explanation generation for one relation
/// and one pattern set: the γ_{F'∪V, agg(A)} aggregate tables and the
/// refinement adjacency (which patterns refine which). Every explain call
/// runs against one: an Engine owns one for its current table content and
/// pattern set and shares it with its one-shot Explain() calls and every
/// ExplainSession it opens; the standalone generators build a throwaway one
/// per call. The state only skips recomputation — it never changes the
/// deterministic candidate order — so answers do not depend on how warm it
/// is (DESIGN.md §11).
///
/// Thread-safe: any number of threads may call Explain() concurrently. The
/// γ tables are built on demand and kept, so the state grows to at most one
/// table per distinct (F' ∪ V, agg, A) in the pattern set. The relation
/// must not change while the state is in use; the Engine replaces its state
/// whenever the table content or the pattern set changes.
class ExplainState {
 public:
  ExplainState(TablePtr relation, std::shared_ptr<const PatternSet> patterns);
  ~ExplainState();

  ExplainState(const ExplainState&) = delete;
  ExplainState& operator=(const ExplainState&) = delete;

  const PatternSet& patterns() const { return *patterns_; }
  const std::shared_ptr<const PatternSet>& shared_patterns() const { return patterns_; }

  /// Answers one question over the state's relation. `optimized` selects
  /// EXPL-GEN-OPT over EXPL-GEN-NAIVE. Questions over another table are
  /// rejected with InvalidArgument, as is `config.top_k < 1`.
  Result<ExplainResult> Explain(const UserQuestion& question, const DistanceModel& distance,
                                const ExplainConfig& config, bool optimized) const;

  /// γ tables built so far.
  size_t num_agg_tables() const;

 private:
  TablePtr relation_;
  std::shared_ptr<const PatternSet> patterns_;
  std::unique_ptr<explain_internal::SharedState> shared_;
};

/// Answers a batch of user questions against one Engine's explain state,
/// with its own ExplainConfig (top-k, deadline, threads). Opening a session
/// is cheap: the γ tables and refinement adjacency live in the engine-owned
/// ExplainState, which every session and every one-shot Engine::Explain()
/// call share, so a session starts as warm as the engine is.
///
/// Every answer is byte-identical to calling Engine::Explain() on the same
/// question (DESIGN.md §11). A session keeps the state it was opened with:
/// after the engine's table or pattern set changes, open a new session.
/// Questions must target the engine's relation. Not intended for concurrent
/// Explain() calls on the same session; open one session per serving thread
/// — they all share one state.
class ExplainSession {
 public:
  ExplainSession(std::shared_ptr<const ExplainState> state, DistanceModel distance,
                 ExplainConfig config);

  /// Answers one question. `optimized` selects EXPL-GEN-OPT over
  /// EXPL-GEN-NAIVE, exactly as in Engine::Explain.
  Result<ExplainResult> Explain(const UserQuestion& question, bool optimized = true);

  /// Answers questions in order; fails fast on the first error.
  Result<std::vector<ExplainResult>> ExplainBatch(const std::vector<UserQuestion>& questions,
                                                  bool optimized = true);

  const PatternSet& patterns() const { return state_->patterns(); }
  ExplainConfig& config() { return config_; }
  const ExplainConfig& config() const { return config_; }

  /// Questions this session answered so far.
  int64_t questions_answered() const { return questions_answered_; }
  /// γ tables built so far in the shared state, by any session or one-shot
  /// call (grows sub-linearly in questions — that is the point).
  size_t num_cached_agg_tables() const { return state_->num_agg_tables(); }

 private:
  std::shared_ptr<const ExplainState> state_;
  DistanceModel distance_;
  ExplainConfig config_;
  int64_t questions_answered_ = 0;
};

}  // namespace cape

#endif  // CAPE_EXPLAIN_EXPLAIN_SESSION_H_
