#include <gtest/gtest.h>

#include <map>
#include <random>

#include "pattern/mining.h"
#include "pattern/pattern_set.h"
#include "relational/table.h"

namespace cape {
namespace {

/// The running-example publications of Figure 1.
TablePtr FigureOneTable() {
  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"pubid", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false}});
  auto add = [&](const char* a, const char* p, int y, const char* v) {
    EXPECT_TRUE(table
                    ->AppendRow({Value::String(a), Value::String(p), Value::Int64(y),
                                 Value::String(v)})
                    .ok());
  };
  add("AX", "P1", 2004, "SIGKDD");
  add("AX", "P2", 2004, "SIGKDD");
  add("AX", "P3", 2005, "SIGKDD");
  add("AX", "P4", 2005, "SIGKDD");
  add("AX", "P5", 2005, "ICDE");
  add("AY", "P2", 2004, "SIGKDD");
  add("AY", "P6", 2004, "ICDE");
  add("AY", "P7", 2004, "ICDM");
  add("AY", "P8", 2005, "ICDE");
  add("AZ", "P9", 2004, "SIGMOD");
  return table;
}

MiningConfig FigureOneConfig() {
  MiningConfig config;
  config.max_pattern_size = 2;
  config.local_gof_threshold = 0.2;   // theta (Example 2)
  config.local_support_threshold = 2;  // delta (Figure 1)
  config.global_confidence_threshold = 0.5;  // lambda (Section 2.3)
  config.global_support_threshold = 2;       // Delta (Section 2.3)
  config.agg_functions = {AggFunc::kCount};
  return config;
}

Pattern PatternP1() {  // [author] : year ~Const~> count(*)
  return Pattern{AttrSet::Single(0), AttrSet::Single(2), AggFunc::kCount,
                 Pattern::kCountStar, ModelType::kConst};
}

TEST(MiningRunningExampleTest, P1HoldsGloballyAsInSection23) {
  auto table = FigureOneTable();
  auto result = MakeArpMiner()->Mine(*table, FigureOneConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GlobalPattern* p1 = result->patterns.Find(PatternP1());
  ASSERT_NE(p1, nullptr) << "P1 = [author] : year ~Const~> count(*) must hold globally";

  // frag(Pub, P1) = {AX, AY, AZ}; AZ lacks support (1 distinct year < delta).
  EXPECT_EQ(p1->num_fragments, 3);
  EXPECT_EQ(p1->num_supported, 2);
  EXPECT_EQ(p1->num_holding, 2);
  EXPECT_DOUBLE_EQ(p1->global_confidence, 1.0);

  // Example 2: g_{P1,AX} predicts 2.5 papers/year, g_{P1,AY} predicts 2.
  const LocalPattern* ax = p1->FindLocal({Value::String("AX")});
  ASSERT_NE(ax, nullptr);
  EXPECT_DOUBLE_EQ(ax->model->Predict({2004}), 2.5);
  EXPECT_EQ(ax->support, 2);
  const LocalPattern* ay = p1->FindLocal({Value::String("AY")});
  ASSERT_NE(ay, nullptr);
  EXPECT_DOUBLE_EQ(ay->model->Predict({2005}), 2.0);
  EXPECT_EQ(p1->FindLocal({Value::String("AZ")}), nullptr);

  // Deviations recorded for pruning: AX's counts 2 and 3 vs beta 2.5.
  EXPECT_DOUBLE_EQ(ax->max_positive_dev, 0.5);
  EXPECT_DOUBLE_EQ(ax->min_negative_dev, -0.5);
  EXPECT_DOUBLE_EQ(p1->max_positive_dev, 1.0);   // AY 2004: 3 vs 2
  EXPECT_DOUBLE_EQ(p1->min_negative_dev, -1.0);  // AY 2005: 1 vs 2
}

TEST(MiningRunningExampleTest, RaisingGlobalSupportKillsP1) {
  auto table = FigureOneTable();
  MiningConfig config = FigureOneConfig();
  config.global_support_threshold = 3;  // only 2 fragments can hold
  auto result = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->patterns.Find(PatternP1()), nullptr);
}

TEST(MiningRunningExampleTest, RaisingLocalSupportKillsP1) {
  auto table = FigureOneTable();
  MiningConfig config = FigureOneConfig();
  config.local_support_threshold = 3;  // no author has 3 distinct years
  auto result = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->patterns.Find(PatternP1()), nullptr);
}

TEST(MiningRunningExampleTest, RaisingThetaKillsNoisyFragments) {
  auto table = FigureOneTable();
  MiningConfig config = FigureOneConfig();
  // AY's fit (counts 3,1 vs beta 2) has p ~ 0.317; theta above that leaves
  // only AX and the pattern misses the Delta = 2 bar.
  config.local_gof_threshold = 0.5;
  auto result = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->patterns.Find(PatternP1()), nullptr);
}

TEST(MiningRunningExampleTest, NonNumericPredictorsOnlyWhenAllowed) {
  auto table = FigureOneTable();
  MiningConfig config = FigureOneConfig();
  auto restricted = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(restricted.ok());
  for (const GlobalPattern& gp : restricted->patterns.patterns()) {
    for (int v : gp.pattern.predictor_attrs.ToIndices()) {
      EXPECT_TRUE(IsNumericType(table->schema()->field(v).type))
          << gp.pattern.ToString(*table->schema());
    }
  }
  config.require_numeric_predictors = false;
  auto full = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(full.ok());
  EXPECT_GE(full->patterns.size(), restricted->patterns.size());
}

TEST(MiningRunningExampleTest, ExcludedAttrsNeverAppear) {
  auto table = FigureOneTable();
  MiningConfig config = FigureOneConfig();
  config.excluded_attrs = {"pubid"};
  auto result = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(result.ok());
  for (const GlobalPattern& gp : result->patterns.patterns()) {
    EXPECT_FALSE(gp.pattern.GroupAttrs().Contains(1));
    EXPECT_NE(gp.pattern.agg_attr, 1);
  }
}

TEST(MiningProfileTest, CountersArePopulated) {
  auto table = FigureOneTable();
  auto result = MakeShareGrpMiner()->Mine(*table, FigureOneConfig());
  ASSERT_TRUE(result.ok());
  const MiningProfile& p = result->profile;
  EXPECT_GT(p.num_candidates, 0);
  EXPECT_GT(p.num_queries, 0);
  EXPECT_GT(p.num_sorts, 0);
  EXPECT_GT(p.num_local_fits, 0);
  EXPECT_GT(p.total_ns, 0);
  EXPECT_GE(p.other_ns(), 0);
}

TEST(MiningTest, ArpMineSharesSortOrders) {
  // On the same workload ARP-MINE must run no more sort queries than
  // SHARE-GRP (it reuses prefixes; Section 4.1 "Reusing sort orders").
  auto table = FigureOneTable();
  MiningConfig config = FigureOneConfig();
  config.max_pattern_size = 3;
  config.require_numeric_predictors = false;  // more splits -> more sharing
  auto share = MakeShareGrpMiner()->Mine(*table, config);
  auto arp = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(share.ok());
  ASSERT_TRUE(arp.ok());
  EXPECT_LE(arp->profile.num_sorts, share->profile.num_sorts);
  EXPECT_GT(arp->profile.num_sorts, 0);
}

TEST(MiningTest, NullAggregateCellsDropOutOfTheFitButCountTowardSupport) {
  // One fragment f = 'A' over v = 1..4 where sum(a) is NULL at v = 2 (its
  // only row has a NULL a). Every miner must fit each non-NULL sum against
  // its own v — sum = 10·v exactly, so the model predicts 20 at v = 2 from
  // three samples — while the NULL cell still counts toward the support.
  auto table = MakeEmptyTable({Field{"f", DataType::kString, false},
                               Field{"v", DataType::kInt64, false},
                               Field{"a", DataType::kInt64, true}});
  for (const Row& row : std::vector<Row>{{Value::String("A"), Value::Int64(1), Value::Int64(10)},
                                         {Value::String("A"), Value::Int64(2), Value::Null()},
                                         {Value::String("A"), Value::Int64(3), Value::Int64(30)},
                                         {Value::String("A"), Value::Int64(4), Value::Int64(40)}}) {
    ASSERT_TRUE(table->AppendRow(row).ok());
  }
  MiningConfig config;
  config.max_pattern_size = 2;
  config.local_gof_threshold = 0.9;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.5;
  config.global_support_threshold = 1;
  config.agg_functions = {AggFunc::kSum};
  config.model_types = {ModelType::kLinear};
  const Pattern linear{AttrSet::Single(0), AttrSet::Single(1), AggFunc::kSum, 2,
                       ModelType::kLinear};
  for (const char* name : {"NAIVE", "CUBE", "SHARE-GRP", "ARP-MINE"}) {
    SCOPED_TRACE(name);
    auto miner = MakeMinerByName(name);
    ASSERT_TRUE(miner.ok());
    auto result = (*miner)->Mine(*table, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const GlobalPattern* global = result->patterns.Find(linear);
    ASSERT_NE(global, nullptr);
    const LocalPattern* local = global->FindLocal({Value::String("A")});
    ASSERT_NE(local, nullptr);
    EXPECT_EQ(local->support, 4);
    EXPECT_EQ(local->model->num_samples(), 3u);
    EXPECT_NEAR(local->model->Predict({2.0}), 20.0, 1e-6);  // the fit is ridge-damped
  }
}

TEST(MakeMinerByNameTest, AllNamesResolve) {
  for (const char* name : {"NAIVE", "CUBE", "SHARE-GRP", "ARP-MINE"}) {
    auto miner = MakeMinerByName(name);
    ASSERT_TRUE(miner.ok()) << name;
    EXPECT_EQ((*miner)->name(), name);
  }
  EXPECT_TRUE(MakeMinerByName("BOGUS").status().IsNotFound());
}

/// Canonical, comparable form of a mining result.
struct CanonicalPattern {
  std::string pattern;
  int64_t fragments;
  int64_t supported;
  int64_t holding;
  std::vector<std::pair<std::string, int64_t>> locals;  // fragment key, support
};

std::vector<CanonicalPattern> Canonicalize(const PatternSet& set, const Schema& schema) {
  std::vector<CanonicalPattern> out;
  for (const GlobalPattern& gp : set.patterns()) {
    CanonicalPattern c;
    c.pattern = gp.pattern.ToString(schema);
    c.fragments = gp.num_fragments;
    c.supported = gp.num_supported;
    c.holding = gp.num_holding;
    for (const LocalPattern& local : gp.locals) {
      std::string key;
      for (const Value& v : local.fragment) key += v.ToString() + "|";
      c.locals.emplace_back(key, local.support);
    }
    std::sort(c.locals.begin(), c.locals.end());
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const CanonicalPattern& a, const CanonicalPattern& b) {
    return a.pattern < b.pattern;
  });
  return out;
}

void ExpectEquivalent(const MiningResult& a, const MiningResult& b, const Schema& schema) {
  auto ca = Canonicalize(a.patterns, schema);
  auto cb = Canonicalize(b.patterns, schema);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].pattern, cb[i].pattern);
    EXPECT_EQ(ca[i].fragments, cb[i].fragments) << ca[i].pattern;
    EXPECT_EQ(ca[i].supported, cb[i].supported) << ca[i].pattern;
    EXPECT_EQ(ca[i].holding, cb[i].holding) << ca[i].pattern;
    EXPECT_EQ(ca[i].locals, cb[i].locals) << ca[i].pattern;
  }
  // Models must agree too (up to floating-point accumulation order).
  for (const GlobalPattern& gp : a.patterns.patterns()) {
    const GlobalPattern* other = b.patterns.Find(gp.pattern);
    ASSERT_NE(other, nullptr);
    for (const LocalPattern& local : gp.locals) {
      const LocalPattern* other_local = other->FindLocal(local.fragment);
      ASSERT_NE(other_local, nullptr);
      EXPECT_NEAR(local.model->goodness_of_fit(), other_local->model->goodness_of_fit(),
                  1e-9);
      EXPECT_NEAR(local.model->Predict({0.0}), other_local->model->Predict({0.0}), 1e-9);
      EXPECT_NEAR(local.max_positive_dev, other_local->max_positive_dev, 1e-9);
      EXPECT_NEAR(local.min_negative_dev, other_local->min_negative_dev, 1e-9);
    }
  }
}

TablePtr RandomTable(uint64_t seed, int64_t rows) {
  std::mt19937_64 rng(seed);
  auto table = MakeEmptyTable({Field{"a", DataType::kInt64, false},
                               Field{"b", DataType::kString, false},
                               Field{"y", DataType::kInt64, false},
                               Field{"v", DataType::kInt64, true}});
  const char* bs[] = {"p", "q", "r"};
  for (int64_t i = 0; i < rows; ++i) {
    Row row{Value::Int64(static_cast<int64_t>(rng() % 4)), Value::String(bs[rng() % 3]),
            Value::Int64(static_cast<int64_t>(2000 + rng() % 6)),
            (rng() % 12 == 0) ? Value::Null()
                              : Value::Int64(static_cast<int64_t>(rng() % 20))};
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

/// Property: all four miners compute the same globally-holding pattern set.
class MinerEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinerEquivalenceProperty, AllMinersAgree) {
  auto table = RandomTable(GetParam(), 250);
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.1;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.3;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};

  auto naive = MakeNaiveMiner()->Mine(*table, config);
  auto cube = MakeCubeMiner()->Mine(*table, config);
  auto share = MakeShareGrpMiner()->Mine(*table, config);
  auto arp = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(cube.ok());
  ASSERT_TRUE(share.ok());
  ASSERT_TRUE(arp.ok());
  ASSERT_GT(arp->patterns.size(), 0u) << "degenerate test: no patterns held";

  const Schema& schema = *table->schema();
  ExpectEquivalent(*naive, *cube, schema);
  ExpectEquivalent(*naive, *share, schema);
  ExpectEquivalent(*naive, *arp, schema);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinerEquivalenceProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

/// Property: SHARE-GRP's worker-pool mode produces the identical result for
/// any thread count (attribute sets are disjoint work units).
class ParallelMiningProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMiningProperty, ParallelEqualsSequential) {
  auto table = RandomTable(1234, 400);
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.1;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.3;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};

  auto sequential = MakeShareGrpMiner()->Mine(*table, config);
  ASSERT_TRUE(sequential.ok());
  ASSERT_GT(sequential->patterns.size(), 0u);

  config.num_threads = GetParam();
  auto parallel = MakeShareGrpMiner()->Mine(*table, config);
  ASSERT_TRUE(parallel.ok());
  ExpectEquivalent(*sequential, *parallel, *table->schema());
  // Work counters are thread-count independent.
  EXPECT_EQ(sequential->profile.num_queries, parallel->profile.num_queries);
  EXPECT_EQ(sequential->profile.num_sorts, parallel->profile.num_sorts);
  EXPECT_EQ(sequential->profile.num_local_fits, parallel->profile.num_local_fits);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelMiningProperty,
                         ::testing::Values(2, 4, 16));

/// Table with a planted FD a -> d (d = a / 2).
TablePtr FdTable(uint64_t seed, int64_t rows) {
  std::mt19937_64 rng(seed);
  auto table = MakeEmptyTable({Field{"a", DataType::kInt64, false},
                               Field{"d", DataType::kInt64, false},
                               Field{"y", DataType::kInt64, false}});
  for (int64_t i = 0; i < rows; ++i) {
    int64_t a = static_cast<int64_t>(rng() % 8);
    Row row{Value::Int64(a), Value::Int64(a / 2),
            Value::Int64(static_cast<int64_t>(2000 + rng() % 5))};
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

TEST(FdOptimizationTest, DetectsFdsAndSkipsRedundantPatterns) {
  auto table = FdTable(5, 400);
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.0;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 1;
  config.agg_functions = {AggFunc::kCount};

  config.use_fd_optimizations = true;
  auto with_fd = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(with_fd.ok());
  // a -> d must have been discovered from group cardinalities.
  EXPECT_TRUE(with_fd->fds.Implies(AttrSet::Single(0), 1));
  EXPECT_GT(with_fd->profile.num_candidates_skipped_fd, 0);

  // The augmented pattern [a, d] : y is redundant (Appendix D) and skipped.
  Pattern augmented{AttrSet::FromIndices({0, 1}), AttrSet::Single(2), AggFunc::kCount,
                    Pattern::kCountStar, ModelType::kConst};
  EXPECT_EQ(with_fd->patterns.Find(augmented), nullptr);

  config.use_fd_optimizations = false;
  auto without_fd = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(without_fd.ok());
  EXPECT_NE(without_fd->patterns.Find(augmented), nullptr);

  // FD skipping removes only patterns that are redundant: every pattern
  // mined with the optimization is also mined without it.
  for (const GlobalPattern& gp : with_fd->patterns.patterns()) {
    EXPECT_NE(without_fd->patterns.Find(gp.pattern), nullptr)
        << gp.pattern.ToString(*table->schema());
  }
  EXPECT_LT(with_fd->patterns.size(), without_fd->patterns.size());
}

TEST(FdOptimizationTest, InitialFdsAreHonored) {
  auto table = FdTable(6, 200);
  MiningConfig config;
  config.max_pattern_size = 2;
  config.local_gof_threshold = 0.0;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 1;
  config.agg_functions = {AggFunc::kCount};
  config.use_fd_optimizations = true;
  config.initial_fds.Add(AttrSet::Single(0), 1);  // provided by the "catalog"

  auto result = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.Implies(AttrSet::Single(0), 1));
}

}  // namespace
}  // namespace cape
