// Micro-benchmarks (google-benchmark) for the substrate operators the
// mining/explanation costs are built from: hash group-by, multi-key sort,
// CUBE, selection, CSV ingest, regression fitting, and the chi-square CDF.
//
// `bench_micro_engine --smoke` skips benchmarking and instead runs a fast
// correctness pass over the kernels (the fused pass equals its two-operator
// definition, counts agree with selections, CSV quarantine hygiene); ctest
// wires this into tier-1.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "datagen/crime.h"
#include "relational/csv.h"
#include "relational/kernels.h"
#include "relational/operators.h"
#include "stats/distributions.h"
#include "stats/regression.h"

namespace cape {
namespace {

TablePtr BenchTable(int64_t rows) {
  CrimeOptions options;
  options.num_rows = rows;
  options.num_attrs = 7;
  options.seed = 3;
  auto table = GenerateCrime(options);
  return table.ok() ? *table : nullptr;
}

void BM_GroupByAggregate(benchmark::State& state) {
  auto table = BenchTable(state.range(0));
  for (auto _ : state) {
    auto result = GroupByAggregate(*table, std::vector<int>{0, 1, 2},
                                   {AggregateSpec::CountStar("cnt")});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_GroupByAggregate)->Arg(10000)->Arg(100000);

void BM_SortTable(benchmark::State& state) {
  auto table = BenchTable(state.range(0));
  auto grouped = GroupByAggregate(*table, std::vector<int>{0, 1, 2},
                                  {AggregateSpec::CountStar("cnt")});
  for (auto _ : state) {
    auto result = SortTable(**grouped, {SortKey{0, true}, SortKey{1, true}});
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_SortTable)->Arg(10000)->Arg(100000);

void BM_Cube(benchmark::State& state) {
  auto table = BenchTable(10000);
  CubeOptions options;
  options.min_group_size = 2;
  options.max_group_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = Cube(*table, {0, 1, 2, 3, 4}, {AggregateSpec::CountStar("cnt")}, options);
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_Cube)->Arg(2)->Arg(3)->Arg(4);

void BM_FilterEquals(benchmark::State& state) {
  auto table = BenchTable(state.range(0));
  for (auto _ : state) {
    auto result = FilterEquals(*table, {{0, Value::String("Battery")}});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_FilterEquals)->Arg(10000)->Arg(100000);

void BM_FilterEqualsAbsent(benchmark::State& state) {
  // Condition value outside every dictionary: the kernel proves emptiness
  // without a scan.
  auto table = BenchTable(state.range(0));
  for (auto _ : state) {
    auto result = FilterEquals(*table, {{0, Value::String("__absent__")}});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterEqualsAbsent)->Arg(100000);

void BM_FilterKernel(benchmark::State& state) {
  // Pure selection kernel: count matching rows off the block masks without
  // materializing — the existence/cardinality probe shape.
  auto table = BenchTable(state.range(0));
  for (auto _ : state) {
    auto result = CountFilterMatches(*table, {{0, Value::String("Battery")}});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterKernel)->Arg(10000)->Arg(100000);

void BM_FusedFilterGroupAggregate(benchmark::State& state) {
  // The retrieval-query shape γ_{V,agg}(σ_{F=f}(R)) the miners and explainers
  // issue per fragment, in one fused pass.
  auto table = BenchTable(state.range(0));
  for (auto _ : state) {
    auto result = FilterGroupAggregate(*table, {{0, Value::String("Battery")}},
                                       std::vector<int>{1, 2},
                                       {AggregateSpec::CountStar("cnt")});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FusedFilterGroupAggregate)->Arg(10000)->Arg(100000);

void BM_CsvIngest(benchmark::State& state) {
  // Round-trips the generated table through CSV text so the benchmark
  // measures parse + typed append + dictionary build, not disk.
  auto table = BenchTable(state.range(0));
  const std::string text = WriteCsvString(*table);
  for (auto _ : state) {
    auto result = ReadCsvString(text);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CsvIngest)->Arg(10000)->Arg(100000);

void BM_ConstantRegression(benchmark::State& state) {
  std::mt19937_64 rng(5);
  std::poisson_distribution<int> pois(20);
  std::vector<double> y;
  for (int64_t i = 0; i < state.range(0); ++i) y.push_back(pois(rng));
  for (auto _ : state) {
    auto model = ConstantRegression::Fit(y);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConstantRegression)->Arg(16)->Arg(256)->Arg(4096);

void BM_LinearRegression(benchmark::State& state) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (int64_t i = 0; i < state.range(0); ++i) {
    X.push_back({static_cast<double>(i), static_cast<double>(i % 12)});
    y.push_back(0.3 * static_cast<double>(i) + noise(rng));
  }
  for (auto _ : state) {
    auto model = LinearRegression::Fit(X, y);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LinearRegression)->Arg(16)->Arg(256)->Arg(4096);

void BM_ChiSquareSf(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChiSquareSf(x, 16.0));
    x += 0.1;
    if (x > 60.0) x = 0.1;
  }
}
BENCHMARK(BM_ChiSquareSf);

/// --smoke: fast correctness pass over the kernel paths, suitable for ctest.
/// Returns the process exit code.
int RunSmoke() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("%-60s %s\n", what, ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  };

  auto table = BenchTable(4000);
  check(table != nullptr, "generate crime table");
  if (table == nullptr) return 1;

  // Every operator runs, and the fused pass equals its two-operator
  // definition (the full reference-evaluator oracle lives in
  // random_equivalence_test).
  const std::vector<std::pair<int, Value>> conditions = {{0, Value::String("Battery")}};
  auto g = GroupByAggregate(*table, std::vector<int>{0, 1, 2},
                            {AggregateSpec::CountStar("cnt")});
  auto s = g.ok() ? SortTable(**g, {SortKey{0, true}, SortKey{1, false}})
                  : Result<TablePtr>(g.status());
  auto f = FilterEquals(*table, conditions);
  CubeOptions copts;
  copts.min_group_size = 1;
  copts.max_group_size = 2;
  auto c = Cube(*table, {0, 1, 2}, {AggregateSpec::CountStar("cnt")}, copts);
  auto d = ProjectDistinct(*table, {0, 1});
  auto fused = FilterGroupAggregate(*table, conditions, std::vector<int>{1, 2},
                                    {AggregateSpec::CountStar("cnt")});
  auto n = CountFilterMatches(*table, conditions);
  if (!g.ok() || !s.ok() || !f.ok() || !c.ok() || !d.ok() || !fused.ok() || !n.ok()) {
    check(false, "operators run without error");
    return 1;
  }
  auto composed = GroupByAggregate(**f, std::vector<int>{1, 2},
                                   {AggregateSpec::CountStar("cnt")});
  check(composed.ok() && WriteCsvString(**fused) == WriteCsvString(**composed),
        "fused filter+group == filter then group");
  check(*n == (*f)->num_rows(), "count probe == filtered row count");

  // Absent-value selections short-circuit to the same (empty) answer.
  auto absent = FilterEquals(*table, {{0, Value::String("__absent__")}});
  check(absent.ok() && (*absent)->num_rows() == 0, "absent value selects empty");

  // CSV ingest round-trip preserves content, and quarantined rows leave no
  // trace in the dictionaries.
  const std::string text = WriteCsvString(*table);
  auto reread = ReadCsvString(text);
  check(reread.ok() && WriteCsvString(**reread) == text, "csv ingest round-trip");
  CsvReadOptions qopts;
  qopts.schema = Schema::Make({Field{"name", DataType::kString, true},
                               Field{"year", DataType::kInt64, true}});
  qopts.quarantine_malformed = true;
  CsvParseReport report;
  auto quarantined = ReadCsvString("name,year\nAX,2007\nGHOST,bad\n", qopts, &report);
  check(quarantined.ok() && report.num_rows_quarantined == 1 &&
            (*quarantined)->column(0).FindCode("GHOST") == Column::kNullCode,
        "quarantined rows do not pollute dictionaries");

  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cape

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return cape::RunSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
