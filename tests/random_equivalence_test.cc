// Randomized equivalence suite (DESIGN.md §11): seeded generators of small
// random tables — mixed types, NULLs, skewed dictionaries — drive property
// checks that the hand-written fixtures cannot cover by breadth:
//
//  1. Every relational kernel, run on a resident table and on its
//     non-resident heap-file twin (OpenPagedTable), produces output
//     byte-identical to the row-at-a-time reference evaluator
//     (reference_ops.h): the two chunk sources and an independent
//     implementation agree on every seed.
//  2. A pattern set round-tripped through the binary store (and the text
//     form) is byte-identical to the freshly mined one.
//  3. Out-of-core mining is byte-identical to in-memory mining at every
//     thread count (the PagedRandomEquivalenceTest suite; sanitizer CI
//     selects it with `ctest -R Paged`).
//  4. Incremental maintenance lands on the same bytes as mining from
//     scratch, resident or paged (IncrementalVsScratchTest).
//
// Every test is parameterized over a fixed seed list, so each seed is its
// own ctest entry and a failure names the reproducing seed directly. The
// suite carries the `slow` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "relational/csv.h"
#include "relational/kernels.h"
#include "relational/operators.h"
#include "relational/table.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "random_table.h"
#include "reference_ops.h"

namespace cape {
namespace {

using Conditions = std::vector<std::pair<int, Value>>;

std::string Csv(const Result<TablePtr>& table) {
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? WriteCsvString(**table) : "<" + table.status().ToString() + ">";
}

std::string Csv(const TablePtr& table) { return WriteCsvString(*table); }

/// A temp-file path unique to the running test (ctest runs each case as
/// its own process, possibly in parallel).
std::string TempPath(const std::string& stem) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + stem + "_" + name + ".cape";
}

/// A resident table plus its heap-file twin opened as a non-resident paged
/// table under a deliberately tight budget (~2 pages of the large tables),
/// with the temp file removed at scope exit. The twin's kernels pin pages;
/// the resident table's kernels slice its columns.
struct PagedFixture {
  TablePtr resident;
  TablePtr paged;
  std::string path;

  ~PagedFixture() {
    paged.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

void OpenTwin(TablePtr table, PagedFixture* fx) {
  fx->resident = std::move(table);
  fx->path = TempPath("cape_paged_equiv");
  ASSERT_TRUE(WriteTableToHeapFile(*fx->resident, fx->path, /*rows_per_page=*/2048).ok());
  auto opened = OpenPagedTable(fx->path, /*budget_bytes=*/1 << 17);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  fx->paged = *opened;
}

/// Checks σ, count and fused σ→γ (hence γ and distinct, which are the
/// no-condition and no-aggregate shapes) on both chunk sources against the
/// reference evaluator.
void ExpectKernelsMatchReference(const PagedFixture& fx,
                                 const std::vector<Conditions>& filters,
                                 const std::vector<std::vector<int>>& group_sets,
                                 const std::vector<AggregateSpec>& aggs,
                                 const std::string& label) {
  const Table& ref = *fx.resident;
  for (const Table* t : {fx.resident.get(), fx.paged.get()}) {
    const std::string where = label + (t == fx.paged.get() ? " paged" : " resident");
    for (size_t f = 0; f < filters.size(); ++f) {
      const Conditions& conditions = filters[f];
      EXPECT_EQ(Csv(FilterEquals(*t, conditions)),
                Csv(reference::FilterEquals(ref, conditions)))
          << where << " filter " << f;
      auto count = CountFilterMatches(*t, conditions);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, reference::CountMatches(ref, conditions)) << where << " filter " << f;
      for (const std::vector<int>& group_cols : group_sets) {
        EXPECT_EQ(Csv(FilterGroupAggregate(*t, conditions, group_cols, aggs)),
                  Csv(reference::FilterGroupAggregate(ref, conditions, group_cols, aggs)))
            << where << " filter " << f << " groups " << group_cols.size();
      }
    }
    for (const std::vector<int>& group_cols : group_sets) {
      EXPECT_EQ(Csv(GroupByAggregate(*t, group_cols, aggs)),
                Csv(reference::GroupByAggregate(ref, group_cols, aggs)))
          << where << " groups " << group_cols.size();
      EXPECT_EQ(Csv(ProjectDistinct(*t, group_cols)),
                Csv(reference::ProjectDistinct(ref, group_cols)))
          << where << " distinct " << group_cols.size();
    }
  }
}

/// Aggregates covering every update shape: mask popcounts (count(*) and
/// count(col) over a nullable column), the dual int64 sum, the double
/// sum/avg, and the boxed min/max comparisons (numeric and string).
std::vector<AggregateSpec> AllAggregateShapes() {
  return {
      AggregateSpec::CountStar("n"),
      AggregateSpec{AggFunc::kCount, 3, "val_n"},
      AggregateSpec::Sum(2, "num_sum"),
      AggregateSpec::Avg(3, "val_avg"),
      AggregateSpec::Min(3, "val_min"),
      AggregateSpec::Max(0, "cat_max"),
  };
}

class RandomEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEquivalenceTest, KernelsMatchLegacyOnRandomTables) {
  // "Legacy" is the row-at-a-time boxed evaluation the kernels replaced;
  // it lives on as the reference evaluator.
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeRandomTable(GetParam()), &fx));
  const std::vector<AggregateSpec> aggs = {AggregateSpec::CountStar("n"),
                                           AggregateSpec::Sum(2, "num_sum"),
                                           AggregateSpec::Sum(3, "val_sum")};
  // Filter values chosen so some conditions hit, some miss, one is NULL.
  const std::vector<Conditions> filters = {
      {{0, Value::String("alpha")}},
      {{0, Value::String("absent")}},
      {{0, Value::Null()}},
      {{0, Value::String("g%mma")}, {1, Value::String("ICDE")}},
      {{2, Value::Int64(7)}},
  };
  ExpectKernelsMatchReference(fx, filters, {{0}, {0, 1}, {1, 2}, {}}, aggs,
                              "seed " + std::to_string(GetParam()));
  // Sorting needs resident rows; string keys sort by dictionary rank.
  for (const std::vector<SortKey>& keys : std::vector<std::vector<SortKey>>{
           {{0, true}}, {{0, false}, {2, true}}, {{1, true}, {3, false}, {0, true}}}) {
    EXPECT_EQ(Csv(SortTable(*fx.resident, keys)), Csv(reference::SortTable(*fx.resident, keys)))
        << "seed " << GetParam();
  }
}

TEST_P(RandomEquivalenceTest, VectorizedKernelsMatchLegacyOnRandomTables) {
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeRandomTable(GetParam()), &fx));
  // Conditions cover code equality, the dictionary-miss proof, NULL on a
  // string and on a numeric column, multi-column conjunctions, int64
  // equality, and the scalar int64-vs-double shape.
  const std::vector<Conditions> filters = {
      {},
      {{0, Value::String("alpha")}},
      {{0, Value::String("absent")}},
      {{0, Value::Null()}},
      {{2, Value::Null()}},
      {{0, Value::String("g%mma")}, {1, Value::String("ICDE")}},
      {{2, Value::Int64(7)}},
      {{2, Value::Double(7.0)}},
      {{1, Value::String("rio")}, {2, Value::Int64(3)}},
  };
  ExpectKernelsMatchReference(fx, filters, {{0}, {0, 1}, {1, 2}, {2}, {3}, {}},
                              AllAggregateShapes(), "seed " + std::to_string(GetParam()));
}

/// Rebuilds `table` with every string column's dictionary loaded up front
/// in reverse byte order, so codes run against both first appearance and
/// string order. Same rows, same values; only the codes differ.
TablePtr WithReversedDictionaries(const Table& table) {
  auto out = std::make_shared<Table>(table.schema());
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    if (col.type() != DataType::kString) continue;
    std::vector<std::string> entries;
    for (int32_t code = 0; code < col.dict_size(); ++code) entries.push_back(col.DictString(code));
    std::sort(entries.rbegin(), entries.rend());
    EXPECT_TRUE(out->mutable_column(c).LoadDictionary(std::move(entries)).ok());
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_TRUE(out->AppendRow(table.GetRow(r)).ok());
  }
  return out;
}

TEST_P(RandomEquivalenceTest, VectorizedKernelsMatchWithDictionaryKernelsDisabled) {
  // The kernels work on dictionary codes; the reference never sees one. In
  // ordinary tables codes follow first appearance, which is also the
  // kernels' group order, so a kernel that leaked code order into its
  // output would still look right. Reversed dictionaries pull the two
  // apart: outputs must stay the reference's (resident table here; the
  // heap-file twin re-interns in first-appearance order).
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(WithReversedDictionaries(*MakeRandomTable(GetParam())), &fx));
  ASSERT_NE(fx.resident->column(0).FindCode("alpha"), 0);
  const std::vector<Conditions> filters = {
      {},
      {{0, Value::String("alpha")}},
      {{1, Value::String("rio")}, {2, Value::Int64(3)}},
  };
  ExpectKernelsMatchReference(fx, filters, {{0}, {0, 1}, {1, 2}, {}}, AllAggregateShapes(),
                              "seed " + std::to_string(GetParam()));
  // The double key holds NaN (two bit patterns), -0.0 next to 0.0 and NULL.
  for (const std::vector<SortKey>& keys : std::vector<std::vector<SortKey>>{
           {{0, true}}, {{1, false}, {0, true}}, {{2, true}}, {{2, false}},
           {{2, true}, {0, false}}}) {
    EXPECT_EQ(Csv(SortTable(*fx.resident, keys)), Csv(reference::SortTable(*fx.resident, keys)))
        << "seed " << GetParam();
  }
}
TEST_P(RandomEquivalenceTest, RoundTrippedPatternSetIsByteIdenticalToFreshMining) {
  TablePtr table = MakeRandomTable(GetParam());
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};
  auto mined = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  const Schema& schema = *table->schema();
  const uint64_t digest = MiningConfigDigest(config);
  const std::string text = SerializePatternSet(mined->patterns, schema);
  const std::string binary = SerializePatternSetBinary(mined->patterns, schema, digest);

  // Binary round trip reproduces the text serialization byte-for-byte, and
  // re-serializing the loaded set is a binary fixpoint.
  auto from_binary = DeserializePatternSetBinary(binary, schema);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(SerializePatternSet(*from_binary, schema), text) << "seed " << GetParam();
  EXPECT_EQ(SerializePatternSetBinary(*from_binary, schema, digest), binary);

  // Text round trip feeds back into an identical binary store.
  auto from_text = DeserializePatternSet(text, schema);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(SerializePatternSetBinary(*from_text, schema, digest), binary);

  // And a second fresh mining run serializes identically (mining itself is
  // deterministic, so any difference would be a codec defect).
  auto remined = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(remined.ok());
  EXPECT_EQ(SerializePatternSetBinary(remined->patterns, schema, digest), binary);
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, RandomEquivalenceTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Multi-page tables and out-of-core mining (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Multi-page variant of MakeRandomTable: same column shapes, enough rows to
/// span several 2048-row heap-file pages (so the paged fixtures cross page
/// boundaries, hit the short last page, and recycle frames under a small
/// budget). Content is a pure function of the seed.
TablePtr MakeLargeRandomTable(uint64_t seed) {
  std::mt19937_64 rng(seed * 2654435761u + 1);
  auto table = MakeEmptyTable({Field{"cat", DataType::kString, true},
                               Field{"city", DataType::kString, true},
                               Field{"num", DataType::kInt64, true},
                               Field{"val", DataType::kDouble, true}});
  const std::vector<std::string> cat_pool = {"alpha", "beta x", "g%mma", "d\te", "eps"};
  const std::vector<std::string> city_pool = {"oslo", "rio", "SIG KDD", "ICDE", "np", "q"};
  const int64_t num_rows = 4500 + static_cast<int64_t>(rng() % 1024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  table->Reserve(num_rows);
  for (int64_t r = 0; r < num_rows; ++r) {
    const double u = unit(rng);
    const size_t cat_idx = static_cast<size_t>(u * u * u * cat_pool.size());
    Row row;
    row.push_back(unit(rng) < 0.1 ? Value::Null() : Value::String(cat_pool[cat_idx]));
    row.push_back(unit(rng) < 0.1 ? Value::Null()
                                  : Value::String(city_pool[rng() % city_pool.size()]));
    row.push_back(unit(rng) < 0.15 ? Value::Null()
                                   : Value::Int64(static_cast<int64_t>(rng() % 50)));
    row.push_back(unit(rng) < 0.15 ? Value::Null() : Value::Double(unit(rng) * 100.0));
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

/// Loose thresholds so small random tables still yield patterns.
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

class PagedRandomEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagedRandomEquivalenceTest, PagedOperatorsMatchInMemoryUnderEveryToggle) {
  // There are no kernel toggles left: each operator has one implementation,
  // and the two chunk sources must both match the reference evaluator.
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeLargeRandomTable(GetParam()), &fx));
  const std::vector<Conditions> filters = {
      {},
      {{0, Value::String("alpha")}},
      {{0, Value::String("absent")}},
      {{0, Value::Null()}},
      {{0, Value::String("g%mma")}, {1, Value::String("ICDE")}},
      {{2, Value::Int64(7)}},
  };
  ExpectKernelsMatchReference(fx, filters, {{0}, {0, 1}, {1, 2}, {3}, {}},
                              AllAggregateShapes(), "seed " + std::to_string(GetParam()));
}

TEST_P(PagedRandomEquivalenceTest, PagedMiningMatchesInMemoryAcrossThreadCounts) {
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeLargeRandomTable(GetParam()), &fx));
  const MiningConfig config = OracleMiningConfig(2);

  auto mine = [&](TablePtr t, int threads) -> std::string {
    auto engine = Engine::FromTable(std::move(t));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    engine->mining_config() = config;
    engine->set_num_threads(threads);
    const Status st = engine->MinePatterns("NAIVE");
    EXPECT_TRUE(st.ok()) << st.ToString();
    return SerializePatternSet(engine->patterns(), engine->schema());
  };

  // Out-of-core mining is deterministic and thread-count-invariant: every
  // (storage, threads) combination serializes the same pattern set.
  // (In-memory thread invariance is the determinism suite's job; here the
  // subject is the paged scan, so only it sweeps thread counts.)
  const std::string want = mine(fx.resident, 1);
  EXPECT_FALSE(want.empty());
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(mine(fx.paged, threads), want)
        << "paged mining diverged (seed " << GetParam() << ", threads " << threads << ")";
  }
}

TEST_P(PagedRandomEquivalenceTest, ResidentAttachTogglesBetweenIdenticalScans) {
  // One logical table with two chunk sources: its resident Column slices
  // and, attached through OpenPagedTable, its heap-file pages under a
  // two-page budget. Every scan shape and an ARP-MINE run must give the
  // same bytes from either source, at every thread count.
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeLargeRandomTable(GetParam()), &fx));
  ASSERT_TRUE(fx.resident->rows_resident());
  ASSERT_FALSE(fx.paged->rows_resident());
  const std::vector<AggregateSpec> aggs = {AggregateSpec::CountStar("n"),
                                           AggregateSpec::Sum(3, "val_sum")};
  const Conditions conditions = {{0, Value::String("alpha")}};
  for (const std::vector<int>& group_cols : std::vector<std::vector<int>>{{0}, {1, 2}, {}}) {
    EXPECT_EQ(Csv(FilterGroupAggregate(*fx.resident, conditions, group_cols, aggs)),
              Csv(FilterGroupAggregate(*fx.paged, conditions, group_cols, aggs)))
        << "seed " << GetParam();
  }
  EXPECT_EQ(Csv(FilterEquals(*fx.resident, conditions)), Csv(FilterEquals(*fx.paged, conditions)));
  const int64_t misses = fx.paged->page_source()->stats().misses;
  EXPECT_GT(misses, 0);

  const MiningConfig config = OracleMiningConfig(2);
  auto mine = [&](TablePtr t, int threads) -> std::string {
    auto engine = Engine::FromTable(std::move(t));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    engine->mining_config() = config;
    engine->set_num_threads(threads);
    const Status st = engine->MinePatterns("ARP-MINE");
    EXPECT_TRUE(st.ok()) << st.ToString();
    return SerializePatternSet(engine->patterns(), engine->schema());
  };
  const std::string want = mine(fx.resident, 1);
  EXPECT_FALSE(want.empty());
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(mine(fx.resident, threads), want) << "resident, threads " << threads;
    EXPECT_EQ(mine(fx.paged, threads), want) << "paged, threads " << threads;
  }
  EXPECT_GT(fx.paged->page_source()->stats().misses, misses);
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, PagedRandomEquivalenceTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Incremental maintenance vs from-scratch mining (DESIGN.md §16).
//
// The oracle: a base prefix of a random table mined once, then grown through
// Engine::AppendAndRemine under several append schedules, must serialize the
// exact same pattern set — and produce the exact same top-k explanations —
// as a cold mine of the full table, resident or from a paged twin, across
// scratch-miner thread counts, and against a paged twin of the grown
// table. maint_full_remines is pinned to zero so a silent fallback to
// re-mining (which would also pass the byte comparison) cannot masquerade as
// incremental maintenance.
// ---------------------------------------------------------------------------

/// Fold points for the append schedules: element 0 is the base size mined
/// cold; each later element is the table size after one AppendAndRemine.
std::vector<std::vector<int64_t>> AppendSchedules(int64_t n) {
  const int64_t one_pct = std::max<int64_t>(1, n / 100);
  std::vector<int64_t> repeated;
  for (int64_t r = (n * 3) / 5; r < n; r += 7) repeated.push_back(r);
  repeated.push_back(n);
  return {
      {n - 1, n},        // a single appended row
      {n - one_pct, n},  // a 1% batch
      {n / 2, n},        // a 50% batch
      repeated,          // many small batches, Absorb after each
  };
}

/// Builds a table holding rows [0, size) of `pool` (same append order, so
/// dictionaries and group discovery order are identical to the pool's).
TablePtr PrefixTable(const TablePtr& pool, int64_t size) {
  auto table = std::make_shared<Table>(pool->schema());
  for (int64_t r = 0; r < size; ++r) {
    EXPECT_TRUE(table->AppendRow(pool->GetRow(r)).ok());
  }
  return table;
}

/// Mines rows [0, schedule.front()) cold, then replays the schedule through
/// AppendAndRemine. Returns the engine so callers can also explain on it.
Result<Engine> GrowIncrementally(const TablePtr& pool,
                                 const std::vector<int64_t>& schedule,
                                 const MiningConfig& config, int threads = 1) {
  CAPE_ASSIGN_OR_RETURN(Engine engine, Engine::FromTable(PrefixTable(pool, schedule[0])));
  engine.mining_config() = config;
  engine.set_num_threads(threads);
  CAPE_RETURN_IF_ERROR(engine.MinePatterns("ARP-MINE"));
  for (size_t i = 1; i < schedule.size(); ++i) {
    std::vector<Row> delta;
    for (int64_t r = schedule[i - 1]; r < schedule[i]; ++r) {
      delta.push_back(pool->GetRow(r));
    }
    CAPE_RETURN_IF_ERROR(engine.AppendAndRemine(delta));
  }
  return engine;
}

Result<Engine> MineScratch(const TablePtr& pool, int64_t size, const MiningConfig& config,
                           int threads) {
  CAPE_ASSIGN_OR_RETURN(Engine engine, Engine::FromTable(PrefixTable(pool, size)));
  engine.mining_config() = config;
  engine.set_num_threads(threads);
  CAPE_RETURN_IF_ERROR(engine.MinePatterns("ARP-MINE"));
  return engine;
}

class IncrementalVsScratchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalVsScratchTest, AppendSchedulesMatchScratchUnderEveryToggle) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  const MiningConfig config = OracleMiningConfig(3);

  auto scratch = MineScratch(pool, n, config, /*threads=*/1);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  const std::string want = SerializePatternSet(scratch->patterns(), scratch->schema());

  // The scratch answer does not depend on the chunk source: a cold mine of
  // the non-resident twin lands on the same bytes at every thread count.
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(pool, &fx));
  for (int threads : {1, 2, 4, 8}) {
    auto twin = Engine::FromTable(fx.paged);
    ASSERT_TRUE(twin.ok());
    twin->mining_config() = config;
    twin->set_num_threads(threads);
    ASSERT_TRUE(twin->MinePatterns("ARP-MINE").ok());
    EXPECT_EQ(SerializePatternSet(twin->patterns(), twin->schema()), want)
        << "paged scratch (seed " << GetParam() << ", threads " << threads << ")";
  }

  for (const std::vector<int64_t>& schedule : AppendSchedules(n)) {
    auto grown = GrowIncrementally(pool, schedule, config);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    EXPECT_EQ(grown->run_stats().maint_full_remines, 0)
        << "fell back to re-mining (seed " << GetParam() << ", base " << schedule[0] << ")";
    EXPECT_EQ(SerializePatternSet(grown->patterns(), grown->schema()), want)
        << "seed " << GetParam() << " base " << schedule[0] << " steps "
        << schedule.size() - 1;
  }
}

TEST_P(IncrementalVsScratchTest, MaintainedSetMatchesScratchAcrossThreadCounts) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  const MiningConfig config = OracleMiningConfig(3);

  // The many-small-batches schedule is the one with the most maintained
  // state. Both sides sweep thread counts: the maintainer stages its folds
  // and re-fits on the pool, the scratch miner splits its attribute sets,
  // and byte identity must be thread-count-invariant on both (on a
  // single-hardware-thread host this still exercises the work-splitting
  // paths).
  auto reference = MineScratch(pool, n, config, /*threads=*/1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string want =
      SerializePatternSet(reference->patterns(), reference->schema());

  for (int threads : {1, 2, 4, 8}) {
    auto grown = GrowIncrementally(pool, AppendSchedules(n)[3], config, threads);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    EXPECT_EQ(grown->run_stats().maint_full_remines, 0)
        << "seed " << GetParam() << " threads " << threads;
    EXPECT_EQ(SerializePatternSet(grown->patterns(), grown->schema()), want)
        << "maintained, seed " << GetParam() << " threads " << threads;

    auto scratch = MineScratch(pool, n, config, threads);
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    EXPECT_EQ(SerializePatternSet(scratch->patterns(), scratch->schema()), want)
        << "scratch, seed " << GetParam() << " threads " << threads;
  }
}

TEST_P(IncrementalVsScratchTest, MaintainedSetMatchesScratchMineOfPagedTwin) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  // max_pattern_size 2 mirrors the paged-mining precedent above (the paged
  // scan re-reads pages per query; depth 3 buys no extra coverage here).
  const MiningConfig config = OracleMiningConfig(2);

  auto grown = GrowIncrementally(pool, AppendSchedules(n)[1], config);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();

  // Spill the grown table to a heap file and scratch-mine the non-resident
  // twin: incremental maintenance on resident arrays must land on the same
  // bytes as a cold out-of-core mine of the same content.
  const std::string path = TempPath("cape_incr_paged");
  ASSERT_TRUE(WriteTableToHeapFile(*grown->table(), path, /*rows_per_page=*/2048).ok());
  auto paged = OpenPagedTable(path, /*budget_bytes=*/1 << 17);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto twin = Engine::FromTable(*paged);
  ASSERT_TRUE(twin.ok());
  twin->mining_config() = config;
  // ARP-MINE, not NAIVE: the maintained set mirrors the ARP evaluation
  // order bit-for-bit, and the two miners agree only up to the last ulp of
  // the deviation statistics (their fold orders differ). The chunk source
  // is the subject here, so the twin runs the same algorithm out-of-core.
  ASSERT_TRUE(twin->MinePatterns("ARP-MINE").ok());

  EXPECT_EQ(SerializePatternSet(grown->patterns(), grown->schema()),
            SerializePatternSet(twin->patterns(), twin->schema()))
      << "seed " << GetParam();
  std::remove(path.c_str());
}

TEST_P(IncrementalVsScratchTest, TopKExplanationsMatchScratchAfterAppends) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  const MiningConfig config = OracleMiningConfig(3);

  auto grown = GrowIncrementally(pool, AppendSchedules(n)[2], config);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  auto scratch = MineScratch(pool, n, config, /*threads=*/1);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  // One question per direction, anchored at the first group with both
  // grouping attributes present. The full rendered top-k must match — the
  // explanation pipeline consumes the maintained pattern set downstream, so
  // any divergence the serialization comparison missed would surface here.
  Value cat, city;
  bool found = false;
  for (int64_t r = 0; r < n && !found; ++r) {
    if (!pool->GetValue(r, 0).is_null() && !pool->GetValue(r, 1).is_null()) {
      cat = pool->GetValue(r, 0);
      city = pool->GetValue(r, 1);
      found = true;
    }
  }
  ASSERT_TRUE(found);

  for (Direction dir : {Direction::kLow, Direction::kHigh}) {
    auto question =
        grown->MakeQuestion({"cat", "city"}, {cat, city}, AggFunc::kCount, "*", dir);
    ASSERT_TRUE(question.ok()) << question.status().ToString();
    auto from_grown = grown->Explain(*question);
    auto from_scratch = scratch->Explain(*question);
    ASSERT_TRUE(from_grown.ok()) << from_grown.status().ToString();
    ASSERT_TRUE(from_scratch.ok()) << from_scratch.status().ToString();
    EXPECT_EQ(grown->RenderExplanations(from_grown->explanations),
              scratch->RenderExplanations(from_scratch->explanations))
        << "seed " << GetParam() << " dir " << static_cast<int>(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, IncrementalVsScratchTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Edge values (hand-built): the cells where typed kernels and boxed Value
// semantics are easiest to pull apart.
// ---------------------------------------------------------------------------

/// NaN (two bit patterns), -0.0 next to 0.0, NULL in every column type, an
/// int64 column holding 2^53 and 2^53 + 1 (equal once widened to double),
/// and the empty string next to NULL strings.
TablePtr MakeEdgeValueTable() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  auto table = MakeEmptyTable({Field{"s", DataType::kString, true},
                               Field{"i", DataType::kInt64, true},
                               Field{"d", DataType::kDouble, true}});
  const std::vector<Row> rows = {
      {Value::String("a"), Value::Int64(7), Value::Double(0.0)},
      {Value::String(""), Value::Int64(big + 1), Value::Double(-0.0)},
      {Value::Null(), Value::Int64(big), Value::Double(nan)},
      {Value::String("b"), Value::Null(), Value::Double(1.5)},
      {Value::String("a"), Value::Int64(-3), Value::Null()},
      {Value::String(""), Value::Int64(7), Value::Double(-nan)},
      {Value::Null(), Value::Int64(0), Value::Double(-0.0)},
      {Value::String("b"), Value::Int64(big), Value::Double(nan)},
      {Value::String("a"), Value::Null(), Value::Double(0.0)},
      {Value::String("c"), Value::Int64(7), Value::Double(7.0)},
  };
  for (const Row& row : rows) EXPECT_TRUE(table->AppendRow(row).ok());
  return table;
}

std::vector<Conditions> EdgeConditions() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  return {
      {},
      {{2, Value::Double(0.0)}},                // matches 0.0, -0.0 and NaN cells
      {{2, Value::Double(-0.0)}},
      {{2, Value::Double(nan)}},                // NaN compares equal to every number
      {{2, Value::Null()}},
      {{2, Value::Int64(7)}},                   // int64 value on a double column
      {{1, Value::Int64(7)}},
      {{1, Value::Double(7.0)}},                // the scalar int64-as-double shape
      {{1, Value::Double(7.5)}},
      {{1, Value::Int64(big + 1)}},             // exact int64 equality
      {{1, Value::Double(static_cast<double>(big))}},  // 2^53 and 2^53 + 1 both match
      {{1, Value::Null()}},
      {{1, Value::String("7")}},                // string value on a numeric column
      {{0, Value::String("")}},
      {{0, Value::String("absent")}},
      {{0, Value::Null()}},
      {{0, Value::Int64(1)}},                   // numeric value on a string column
      {{0, Value::String("a")}, {2, Value::Double(0.0)}},
  };
}

std::vector<AggregateSpec> EdgeAggregates() {
  return {
      AggregateSpec::CountStar("n"),     AggregateSpec{AggFunc::kCount, 2, "d_n"},
      AggregateSpec::Sum(2, "d_sum"),    AggregateSpec::Avg(1, "i_avg"),
      AggregateSpec::Sum(1, "i_sum"),    AggregateSpec::Min(2, "d_min"),
      AggregateSpec::Max(2, "d_max"),    AggregateSpec::Min(0, "s_min"),
      AggregateSpec::Max(1, "i_max"),
  };
}

TEST(EdgeValueTest, KernelsMatchReferenceOnBothChunkSources) {
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeEdgeValueTable(), &fx));
  // Group sets cover a double key (NaN bit patterns, -0.0 with 0.0), a wide
  // int64 key (2^53 apart: generic encoder), a string key with "" and NULL,
  // a mixed key, and the global aggregate.
  ExpectKernelsMatchReference(fx, EdgeConditions(), {{2}, {1}, {0}, {0, 2}, {0, 1}, {}},
                              EdgeAggregates(), "edge table");
  // The double key holds NaN (two bit patterns), -0.0 next to 0.0 and NULL.
  for (const std::vector<SortKey>& keys : std::vector<std::vector<SortKey>>{
           {{0, true}}, {{1, false}, {0, true}}, {{2, true}}, {{2, false}},
           {{2, true}, {0, false}}}) {
    EXPECT_EQ(Csv(SortTable(*fx.resident, keys)), Csv(reference::SortTable(*fx.resident, keys)));
  }
}

TEST(EdgeValueTest, RowOrderEqualityMatchesItsOrder) {
  // Fragment boundaries use the unranked Equal; sorts use the ranked
  // Compare. They must agree on every pair of edge cells, and the order
  // must be antisymmetric (a strict weak order needs it for NaN above all).
  const TablePtr table = MakeEdgeValueTable();
  for (int col = 0; col < table->num_columns(); ++col) {
    const RowOrder ranked(*table, {SortKey{col, true}});
    const RowOrder unranked(*table, {SortKey{col, true}}, /*rank_strings=*/false);
    for (int64_t a = 0; a < table->num_rows(); ++a) {
      for (int64_t b = 0; b < table->num_rows(); ++b) {
        const int cmp = ranked.Compare(a, b);
        EXPECT_EQ(unranked.Equal(a, b), cmp == 0) << "col " << col << " rows " << a << "," << b;
        EXPECT_EQ(ranked.Compare(b, a), -cmp) << "col " << col << " rows " << a << "," << b;
      }
    }
  }
}

TEST(EdgeValueTest, EmptyTableMatchesReferenceOnBothChunkSources) {
  PagedFixture fx;
  ASSERT_NO_FATAL_FAILURE(OpenTwin(MakeEmptyTable({Field{"s", DataType::kString, true},
                                                   Field{"i", DataType::kInt64, true},
                                                   Field{"d", DataType::kDouble, true}}),
                                   &fx));
  ExpectKernelsMatchReference(fx, EdgeConditions(), {{2}, {1}, {0}, {0, 1}, {}},
                              EdgeAggregates(), "empty table");
}

TEST(EdgeValueTest, ResidentScanCrossesChunkBoundary) {
  // A resident table just over one chunk: every kernel must carry groups,
  // sums and selections across the chunk boundary as a paged scan does
  // across pages.
  const int64_t rows = kResidentChunkRows + 3000;
  auto table = MakeEmptyTable({Field{"k", DataType::kInt64, true},
                               Field{"s", DataType::kString, true},
                               Field{"d", DataType::kDouble, true}});
  table->Reserve(rows);
  const std::vector<std::string> pool = {"x", "y", "z"};
  for (int64_t r = 0; r < rows; ++r) {
    Row row;
    row.push_back(r % 11 == 0 ? Value::Null() : Value::Int64(r % 7));
    row.push_back(Value::String(pool[static_cast<size_t>((r / 5) % 3)]));
    row.push_back(Value::Double(static_cast<double>(r % 13) * 0.25));
    ASSERT_TRUE(table->AppendRow(row).ok());
  }
  const std::vector<AggregateSpec> aggs = {AggregateSpec::CountStar("n"),
                                           AggregateSpec::Sum(2, "d_sum"),
                                           AggregateSpec::Max(0, "k_max")};
  const Conditions conditions = {{1, Value::String("y")}};
  EXPECT_EQ(*CountFilterMatches(*table, conditions), reference::CountMatches(*table, conditions));
  EXPECT_EQ(Csv(FilterEquals(*table, conditions)),
            Csv(reference::FilterEquals(*table, conditions)));
  for (const std::vector<int>& group_cols : std::vector<std::vector<int>>{{0}, {1, 0}, {}}) {
    EXPECT_EQ(Csv(FilterGroupAggregate(*table, conditions, group_cols, aggs)),
              Csv(reference::FilterGroupAggregate(*table, conditions, group_cols, aggs)));
    EXPECT_EQ(Csv(GroupByAggregate(*table, group_cols, aggs)),
              Csv(reference::GroupByAggregate(*table, group_cols, aggs)));
  }
}

}  // namespace
}  // namespace cape
