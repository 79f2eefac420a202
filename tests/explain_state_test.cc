// The engine-owned explain state and the bounded top-k candidate pool
// (DESIGN.md §11), checked three ways:
//
//  1. An exhaustive reference explainer, written here from the paper's
//     definitions with no pruning, no bounded pool, no threads and no
//     shared state. NAIVE and OPT must match it byte for byte on the
//     random_equivalence_test seeds, at 1/2/4/8 threads and top_k in
//     {1, 3, 10, 10000}. NAIVE and OPT share the pool, so comparing them
//     with each other could not catch a pool bug; this can.
//  2. The state's lifecycle: after AppendAndRemine, SetPatterns,
//     LoadPatterns or MinePatterns, an engine warmed on the old data or
//     patterns answers exactly like a scratch engine.
//  3. Concurrency: many threads explaining on a cold engine build one
//     shared state without changing any answer.
//
// The suite carries the `smoke` label, so the sanitizer CI jobs run it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "random_table.h"
#include "relational/operators.h"

namespace cape {
namespace {

/// Exhaustive EXPL-GEN from Definitions 5-10: every candidate of every
/// (P, P') pair is scored and kept; per counterbalance tuple the best score
/// wins, a tie going to the lower (pair, row) rank; then one full sort by
/// score descending and tuple key ascending, and the first `top_k`. Only
/// the relational operators (σ, γ) and the pattern, distance and model
/// primitives are shared with the engine; they have oracles of their own.
/// `opt_order` numbers the pairs as EXPL-GEN-OPT does (stable sort by the
/// Section 3.5 bound), which matters only for the rank tie-break.
Result<std::vector<Explanation>> ReferenceExplain(const UserQuestion& q,
                                                  const PatternSet& patterns,
                                                  const DistanceModel& distance,
                                                  const ExplainConfig& config,
                                                  bool opt_order) {
  const double eps = config.epsilon;
  const double is_low = q.dir == Direction::kLow ? 1.0 : -1.0;
  struct Pair {
    const GlobalPattern* relevant;
    const GlobalPattern* refinement;
    double norm;
    double bound;
  };
  std::vector<Pair> pairs;
  for (const GlobalPattern& gp : patterns.patterns()) {
    const Pattern& p = gp.pattern;
    // Definition 5: same aggregate, F ∪ V ⊆ G, and P holds locally on t[F].
    if (p.agg != q.agg || p.agg_attr != q.agg_attr) continue;
    if (!q.group_attrs.ContainsAll(p.GroupAttrs())) continue;
    if (gp.FindLocal(q.ProjectGroupValues(p.partition_attrs)) == nullptr) continue;

    // NORM (Definition 10), as σ then γ over the relation.
    std::vector<std::pair<int, Value>> conditions;
    const std::vector<int> g_cols = p.GroupAttrs().ToIndices();
    const Row g_values = q.ProjectGroupValues(p.GroupAttrs());
    for (size_t i = 0; i < g_cols.size(); ++i) conditions.emplace_back(g_cols[i], g_values[i]);
    CAPE_ASSIGN_OR_RETURN(TablePtr slice, FilterEquals(*q.relation, conditions));
    AggregateSpec spec;
    spec.func = p.agg;
    spec.input_col = p.agg_attr;
    spec.output_name = "agg";
    CAPE_ASSIGN_OR_RETURN(TablePtr norm_table,
                          GroupByAggregate(*slice, std::vector<int>{}, {spec}));
    const Value norm_value = norm_table->GetValue(0, 0);
    const double norm = norm_value.is_null() ? 0.0 : norm_value.AsDouble();

    for (const GlobalPattern& gpp : patterns.patterns()) {
      if (!gpp.pattern.IsRefinementOf(p)) continue;  // Definition 6
      double bound = 0.0;
      if (opt_order) {
        const double dev_up =
            q.dir == Direction::kLow ? gpp.max_positive_dev : -gpp.min_negative_dev;
        const double d_lb = distance.LowerBound(q.group_attrs, gpp.pattern.GroupAttrs());
        bound = dev_up <= 0.0 ? 0.0 : dev_up / ((d_lb + eps) * (std::fabs(norm) + eps));
      }
      pairs.push_back(Pair{&gp, &gpp, norm, bound});
    }
  }
  if (opt_order) {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Pair& a, const Pair& b) { return a.bound > b.bound; });
  }

  struct Kept {
    Explanation explanation;
    std::pair<int64_t, int64_t> rank;  // (pair, row)
  };
  std::map<std::string, Kept> best;  // tuple key → best candidate
  for (size_t r = 0; r < pairs.size(); ++r) {
    const Pattern& p = pairs[r].relevant->pattern;
    const Pattern& pp = pairs[r].refinement->pattern;
    const AttrSet attrs = pp.GroupAttrs();
    const std::vector<int> cols = attrs.ToIndices();
    AggregateSpec spec;
    spec.func = pp.agg;
    spec.input_col = pp.agg_attr;
    spec.output_name = "agg";
    CAPE_ASSIGN_OR_RETURN(TablePtr data, GroupByAggregate(*q.relation, cols, {spec}));
    const int agg_col = static_cast<int>(cols.size());
    for (int64_t row = 0; row < data->num_rows(); ++row) {
      Row t;
      for (int i = 0; i < agg_col; ++i) t.push_back(data->GetValue(row, i));
      auto project = [&](AttrSet subset) {
        Row out;
        for (size_t i = 0; i < cols.size(); ++i) {
          if (subset.Contains(cols[i])) out.push_back(t[i]);
        }
        return out;
      };
      // Definition 7: t'[F] = t[F], t' ≠ t, P' holds locally on t'[F'],
      // and t' deviates opposite to the question.
      if (project(p.partition_attrs) != q.ProjectGroupValues(p.partition_attrs)) continue;
      if (attrs == q.group_attrs && t == q.group_values) continue;
      const Value agg = data->GetValue(row, agg_col);
      if (agg.is_null()) continue;
      const LocalPattern* local = pairs[r].refinement->FindLocal(project(pp.partition_attrs));
      if (local == nullptr) continue;
      std::vector<double> x;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!pp.predictor_attrs.Contains(cols[i])) continue;
        const bool numeric = IsNumericType(data->column(static_cast<int>(i)).type());
        x.push_back(numeric && !t[i].is_null() ? t[i].AsDouble() : 0.0);
      }
      const double predicted = local->model->Predict(x);
      const double y = agg.AsDouble();
      if (q.dir == Direction::kLow ? y <= predicted : y >= predicted) continue;

      Explanation e;
      e.relevant_pattern = p;
      e.refinement_pattern = pp;
      e.tuple_attrs = attrs;
      e.tuple_values = t;
      e.agg_value = y;
      e.predicted = predicted;
      e.deviation = y - predicted;
      e.distance = distance.Distance(q.group_attrs, q.group_values, attrs, t);
      e.norm = pairs[r].norm;
      e.score = (e.deviation * is_low) /
                ((e.distance + eps) * (std::fabs(pairs[r].norm) + eps));  // Definition 10
      const std::pair<int64_t, int64_t> rank(static_cast<int64_t>(r), row);
      const std::string key = std::to_string(attrs.bits()) + "|" + EncodeRowKey(t);
      auto [it, inserted] = best.try_emplace(key, Kept{e, rank});
      Kept& held = it->second;
      if (!inserted && (e.score > held.explanation.score ||
                        (e.score == held.explanation.score && rank < held.rank))) {
        held = Kept{e, rank};
      }
    }
  }

  std::vector<std::pair<std::string, Explanation>> ranked;
  for (auto& [key, kept] : best) ranked.emplace_back(key, kept.explanation);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.score != b.second.score) return a.second.score > b.second.score;
    return a.first < b.first;
  });
  std::vector<Explanation> out;
  for (size_t i = 0; i < ranked.size() && static_cast<int>(i) < config.top_k; ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

/// Every field of every explanation, doubles as exact hex floats.
std::string Serialize(const std::vector<Explanation>& explanations, const Schema& schema) {
  std::string out;
  for (const Explanation& e : explanations) {
    out += e.relevant_pattern.ToString(schema) + " / " + e.refinement_pattern.ToString(schema) +
           " / " + std::to_string(e.tuple_attrs.bits());
    for (const Value& v : e.tuple_values) out += "|" + v.ToString();
    char buf[256];
    std::snprintf(buf, sizeof(buf), " agg=%a pred=%a dev=%a dist=%a norm=%a score=%a\n",
                  e.agg_value, e.predicted, e.deviation, e.distance, e.norm, e.score);
    out += buf;
  }
  return out;
}

MiningConfig OracleMiningConfig(int max_pattern_size) {
  MiningConfig config;
  config.max_pattern_size = max_pattern_size;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};
  return config;
}

Engine MinedEngine(TablePtr table, const MiningConfig& config) {
  auto engine = Engine::FromTable(std::move(table));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  engine->mining_config() = config;
  EXPECT_TRUE(engine->MinePatterns().ok());
  return std::move(engine).ValueOrDie();
}

/// Count and sum questions in both directions about groups taken from rows
/// of the engine's table (so each group exists), over two group-bys.
std::vector<UserQuestion> Questions(const Engine& engine) {
  const Table& table = *engine.table();
  struct Shape {
    std::vector<std::string> group_by;
    AggFunc agg;
    std::string agg_attr;
  };
  const std::vector<Shape> shapes = {{{"cat", "city"}, AggFunc::kCount, "*"},
                                     {{"cat", "city", "num"}, AggFunc::kCount, "*"},
                                     {{"cat", "city"}, AggFunc::kSum, "val"}};
  std::vector<UserQuestion> questions;
  for (int64_t start : {int64_t{0}, table.num_rows() / 2}) {
    int64_t row = start;
    while (row < table.num_rows() &&
           (table.GetValue(row, 0).is_null() || table.GetValue(row, 1).is_null() ||
            table.GetValue(row, 2).is_null())) {
      ++row;
    }
    if (row == table.num_rows()) continue;
    for (const Shape& shape : shapes) {
      std::vector<Value> values;
      for (const std::string& name : shape.group_by) {
        values.push_back(table.GetValue(row, table.schema()->GetFieldIndex(name)));
      }
      for (Direction dir : {Direction::kLow, Direction::kHigh}) {
        auto q = engine.MakeQuestion(shape.group_by, values, shape.agg, shape.agg_attr, dir);
        EXPECT_TRUE(q.ok()) << q.status().ToString();
        if (q.ok()) questions.push_back(std::move(q).ValueOrDie());
      }
    }
  }
  return questions;
}

/// Both generators' answers to every question, serialized.
std::vector<std::string> Answers(const Engine& engine) {
  std::vector<std::string> out;
  for (const UserQuestion& q : Questions(engine)) {
    for (bool optimized : {false, true}) {
      auto result = engine.Explain(q, optimized);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(result.ok() && result->partial);
      out.push_back(result.ok() ? Serialize(result->explanations, engine.schema()) : "error");
    }
  }
  return out;
}

TablePtr Prefix(const TablePtr& pool, int64_t size) {
  auto table = std::make_shared<Table>(pool->schema());
  for (int64_t r = 0; r < size; ++r) EXPECT_TRUE(table->AppendRow(pool->GetRow(r)).ok());
  return table;
}

// ---------------------------------------------------------------------------
// 1. Exhaustive oracle.

class ExplainOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExplainOracleTest, NaiveAndOptMatchExhaustiveReference) {
  Engine engine = MinedEngine(MakeRandomTable(GetParam()), OracleMiningConfig(3));
  const std::vector<UserQuestion> questions = Questions(engine);
  ASSERT_FALSE(questions.empty());

  size_t compared = 0;
  for (int top_k : {1, 3, 10, 10000}) {
    engine.explain_config().top_k = top_k;
    for (const UserQuestion& q : questions) {
      for (bool optimized : {false, true}) {
        auto want = ReferenceExplain(q, engine.patterns(), engine.distance_model(),
                                     engine.explain_config(), optimized);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        compared += want->size();
        const std::string expected = Serialize(*want, engine.schema());
        for (int threads : {1, 2, 4, 8}) {
          engine.set_num_threads(threads);
          auto got = engine.Explain(q, optimized);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_FALSE(got->partial);
          EXPECT_EQ(Serialize(got->explanations, engine.schema()), expected)
              << "seed " << GetParam() << " " << q.ToString() << " optimized=" << optimized
              << " top_k=" << top_k << " threads=" << threads;
        }
      }
    }
  }
  // The seeds must exercise the pool, not compare empty answers.
  EXPECT_GT(compared, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, ExplainOracleTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// 2. Lifecycle: every change of table or pattern set replaces the state.

TEST(ExplainStateLifecycleTest, AppendAndRemineMatchesScratchEngine) {
  const TablePtr pool = MakeRandomTable(42);
  const int64_t n = pool->num_rows();
  Engine grown = MinedEngine(Prefix(pool, n / 2), OracleMiningConfig(3));
  Answers(grown);  // warm the state over the first half of the rows

  std::vector<Row> delta;
  for (int64_t r = n / 2; r < n; ++r) delta.push_back(pool->GetRow(r));
  ASSERT_TRUE(grown.AppendAndRemine(delta).ok());
  auto fresh = grown.MakeExplainSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->num_cached_agg_tables(), 0u) << "the append kept the old γ tables";

  const Engine scratch = MinedEngine(Prefix(pool, n), OracleMiningConfig(3));
  EXPECT_EQ(Answers(grown), Answers(scratch));
}

TEST(ExplainStateLifecycleTest, PatternChangesMatchScratchEngine) {
  const TablePtr table = MakeRandomTable(99);
  const Engine other = MinedEngine(table, OracleMiningConfig(2));
  const std::vector<std::string> want = Answers(other);
  ASSERT_NE(want, Answers(MinedEngine(table, OracleMiningConfig(3))))
      << "the two pattern sets must answer differently for this test to bite";

  Engine engine = MinedEngine(table, OracleMiningConfig(3));
  Answers(engine);
  engine.SetPatterns(other.patterns());
  EXPECT_EQ(Answers(engine), want) << "after SetPatterns";

  Engine loaded = MinedEngine(table, OracleMiningConfig(3));
  Answers(loaded);
  const std::string path = ::testing::TempDir() + "cape_explain_state_patterns.arpb";
  ASSERT_TRUE(other.SavePatternsBinary(path).ok());
  ASSERT_TRUE(loaded.LoadPatterns(path).ok());
  EXPECT_EQ(Answers(loaded), want) << "after LoadPatterns";
  std::remove(path.c_str());

  Engine remined = MinedEngine(table, OracleMiningConfig(3));
  Answers(remined);
  remined.mining_config() = OracleMiningConfig(2);
  ASSERT_TRUE(remined.MinePatterns().ok());
  EXPECT_EQ(Answers(remined), want) << "after MinePatterns";
}

// ---------------------------------------------------------------------------
// 3. Concurrency.

TEST(ExplainStateConcurrencyTest, ConcurrentExplainsOnColdEngineMatchSequential) {
  const Engine reference = MinedEngine(MakeRandomTable(2026), OracleMiningConfig(3));
  const std::vector<std::string> want = Answers(reference);

  auto cold = Engine::FromTable(MakeRandomTable(2026));
  ASSERT_TRUE(cold.ok());
  cold->SetPatterns(reference.patterns());
  cold->set_num_threads(2);
  const std::vector<UserQuestion> questions = Questions(*cold);
  ASSERT_EQ(want.size(), 2 * questions.size());

  constexpr int kCallers = 8;
  struct Latch {
    Mutex mu;
    CondVar cv;
    int remaining CAPE_GUARDED_BY(mu) = kCallers;
  } latch;
  // Each caller starts at a different question, so first builds of the
  // same γ table race.
  std::vector<std::vector<std::string>> got(kCallers, std::vector<std::string>(want.size()));
  ThreadPool callers(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.Submit([&, c] {
      for (size_t k = 0; k < questions.size(); ++k) {
        const size_t qi = (k + static_cast<size_t>(c)) % questions.size();
        for (bool optimized : {false, true}) {
          auto result = cold->Explain(questions[qi], optimized);
          got[static_cast<size_t>(c)][2 * qi + (optimized ? 1 : 0)] =
              result.ok() ? Serialize(result->explanations, cold->schema())
                          : result.status().ToString();
        }
      }
      MutexLock lock(latch.mu);
      if (--latch.remaining == 0) latch.cv.NotifyAll();
    });
  }
  {
    MutexLock lock(latch.mu);
    while (latch.remaining > 0) latch.cv.Wait(latch.mu);
  }
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(got[static_cast<size_t>(c)], want) << c;

  // One γ table at most per distinct (F' ∪ V, agg, A) of the pattern set.
  std::set<std::tuple<uint64_t, AggFunc, int>> keys;
  for (const GlobalPattern& gp : cold->patterns().patterns()) {
    keys.emplace(gp.pattern.GroupAttrs().bits(), gp.pattern.agg, gp.pattern.agg_attr);
  }
  auto session = cold->MakeExplainSession();
  ASSERT_TRUE(session.ok());
  EXPECT_GT(session->num_cached_agg_tables(), 0u);
  EXPECT_LE(session->num_cached_agg_tables(), keys.size());
}

}  // namespace
}  // namespace cape
