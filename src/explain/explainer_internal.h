#ifndef CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_
#define CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/annotations.h"
#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/result.h"
#include "explain/explainer.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape::explain_internal {

/// Identity of one γ_{attrs, agg(A)}(R) table: a refinement pattern's
/// F' ∪ V with its aggregate.
struct AggKey {
  uint64_t attrs = 0;
  AggFunc agg = AggFunc::kCount;
  int agg_attr = 0;

  friend bool operator<(const AggKey& a, const AggKey& b) {
    return std::tie(a.attrs, a.agg, a.agg_attr) < std::tie(b.attrs, b.agg, b.agg_attr);
  }
};

/// Caches γ_{attrs, agg(A)}(R) tables shared by every (P, P') pair whose
/// refinement has the same attribute set. Thread-safe: each key is built by
/// one caller at a time, outside the lock, and a caller that finds its key
/// mid-build waits for it, while distinct keys build in parallel. The
/// tables depend only on the relation — never on the user question — so
/// one instance lives in the shared explain state for as long as the
/// relation and pattern set do.
class AggDataCache {
 public:
  explicit AggDataCache(const Table& relation) : relation_(relation) {}

  Result<TablePtr> Get(const AggKey& key, StopToken* stop) CAPE_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      Entry& entry = cache_[key];
      while (entry.table == nullptr && entry.building) built_.Wait(mu_);
      if (entry.table != nullptr) return entry.table;
      entry.building = true;
    }
    AggregateSpec spec;
    spec.func = key.agg;
    spec.input_col = key.agg_attr;
    spec.output_name = "agg";
    Result<TablePtr> data =
        GroupByAggregate(relation_, AttrSet(key.attrs).ToIndices(), {spec}, stop);
    MutexLock lock(mu_);
    Entry& entry = cache_[key];
    entry.building = false;
    // A failed computation (deadline mid-aggregation) is not cached: the
    // run is ending anyway, and a later caller builds the key afresh.
    if (data.ok()) entry.table = *data;
    built_.NotifyAll();
    return data;
  }

  /// Built tables (a key whose build was stopped does not count).
  size_t num_entries() const CAPE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t built = 0;
    for (const auto& [key, entry] : cache_) built += entry.table != nullptr ? 1 : 0;
    return built;
  }

 private:
  struct Entry {
    TablePtr table;
    bool building = false;
  };

  const Table& relation_;
  mutable Mutex mu_;
  CondVar built_;
  std::map<AggKey, Entry> cache_ CAPE_GUARDED_BY(mu_);
};

/// The question-independent half of explanation generation behind the
/// public ExplainState handle: the γ tables above and the refinement
/// adjacency (for each pattern index, the indices — in enumeration order —
/// of the patterns refining it). The adjacency is built once at
/// construction and immutable afterwards, so readers need no lock; keeping
/// enumeration order keeps the pair list, and hence every answer,
/// byte-identical to a scan of the whole pattern set.
struct SharedState {
  SharedState(const Table& relation, const PatternSet& patterns);

  AggDataCache agg_cache;
  std::vector<std::vector<int64_t>> refinements;
};

}  // namespace cape::explain_internal

#endif  // CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_
