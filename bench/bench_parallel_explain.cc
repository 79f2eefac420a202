// Beyond the paper: EXPL-GEN-OPT with the (P, P') scoring units partitioned
// across the shared thread pool, pruning against a shared monotone top-k
// floor (DESIGN.md §9). The rendered top-k is asserted byte-identical to the
// single-threaded run at every thread count — parallelism changes wall
// time, never answers.
//
// Wall vs CPU: wall is elapsed per-question time summed over questions; CPU
// is scoring work summed across workers. cpu/wall approximates the achieved
// parallelism and is bounded by the hardware threads actually available.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "datagen/crime.h"

using namespace cape;         // NOLINT
using namespace cape::bench;  // NOLINT

namespace {

/// Full-precision rendering of one explain run: the paper-style table plus
/// every score at %.17g so byte comparison catches any drifting bit.
std::string RenderRun(const Engine& engine, const ExplainResult& result) {
  std::string out = engine.RenderExplanations(result.explanations);
  for (const Explanation& e : result.explanations) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g\n", e.score);
    out += buf;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Parallel explanation",
         "EXPL-GEN-OPT wall vs CPU time by worker threads (Crime, D=30k, A=7)");
  const std::string json_path = ParseJsonPath(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads available: %u (wall speedup is bounded by this)\n\n", hw);

  CrimeOptions data;
  data.num_rows = 30000;
  data.num_attrs = 7;
  data.seed = 7;
  auto table = CheckResult(GenerateCrime(data), "GenerateCrime");
  Engine engine = CheckResult(Engine::FromTable(table), "Engine::FromTable");
  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 4;
  mining.local_gof_threshold = 0.2;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.2;
  mining.global_support_threshold = 10;
  mining.agg_functions = {AggFunc::kCount};
  CheckOk(engine.MinePatterns("ARP-MINE"), "MinePatterns");
  std::printf("mined %zu global patterns\n", engine.patterns().size());

  auto questions =
      GenerateQuestions(table, {"primary_type", "community", "year"}, 6, Direction::kLow);
  auto more = GenerateQuestions(table, {"primary_type", "community", "year", "month"}, 2,
                                Direction::kHigh);
  questions.insert(questions.end(), more.begin(), more.end());
  std::printf("generated %zu user questions\n\n", questions.size());

  BenchJson json("parallel_explain_opt");
  json.AddConfig("dataset", "crime");
  json.AddConfig("num_rows", static_cast<int64_t>(data.num_rows));
  json.AddConfig("num_attrs", static_cast<int64_t>(data.num_attrs));
  json.AddConfig("seed", static_cast<int64_t>(data.seed));
  json.AddConfig("num_questions", static_cast<int64_t>(questions.size()));
  json.AddConfig("hardware_threads", static_cast<int64_t>(hw));

  // Cold path: the first question on a fresh explain state (SetPatterns
  // drops the engine's state), which builds every γ table it scans; median
  // of kColdReps. Every answer must match the warm 1-thread reference below.
  constexpr int kColdReps = 5;
  std::printf("%-8s %18s %10s\n", "threads", "cold q0 p50 (ms)", "γ tables");
  std::vector<std::string> cold_runs;
  for (int threads : {1, 4}) {
    engine.explain_config().num_threads = threads;
    std::vector<double> wall_ms;
    size_t tables = 0;
    for (int rep = 0; rep < kColdReps; ++rep) {
      engine.SetPatterns(engine.patterns());
      auto result = CheckResult(engine.Explain(questions[0], /*optimized=*/true), "Explain");
      wall_ms.push_back(result.profile.total_ns * 1e-6);
      tables = CheckResult(engine.MakeExplainSession(), "MakeExplainSession")
                   .num_cached_agg_tables();
      cold_runs.push_back(RenderRun(engine, result));
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    const double p50_ms = wall_ms[wall_ms.size() / 2];
    std::printf("%-8d %18.2f %10zu\n", threads, p50_ms, tables);
    json.BeginResult();
    json.Add("phase", std::string("cold_first_question"));
    json.Add("threads", static_cast<int64_t>(threads));
    json.Add("wall_s_p50", p50_ms * 1e-3);
    json.Add("agg_tables", static_cast<int64_t>(tables));
  }
  std::printf("\n");
  // Warm the state with every question so the sweep compares warm runs.
  for (const UserQuestion& q : questions) CheckResult(engine.Explain(q), "Explain");

  std::vector<std::string> reference_runs;
  double reference_seconds = 0.0;
  std::printf("%-8s %10s %10s %9s %9s %12s\n", "threads", "wall(s)", "cpu(s)", "speedup",
              "cpu/wall", "expl");
  for (int threads : {1, 2, 4, 8}) {
    engine.explain_config().num_threads = threads;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    int64_t num_expl = 0;
    for (size_t qi = 0; qi < questions.size(); ++qi) {
      auto result = CheckResult(engine.Explain(questions[qi], /*optimized=*/true), "Explain");
      wall_s += result.profile.total_ns * 1e-9;
      cpu_s += result.profile.cpu_ns * 1e-9;
      num_expl += static_cast<int64_t>(result.explanations.size());
      const std::string rendered = RenderRun(engine, result);
      if (threads == 1) {
        reference_runs.push_back(rendered);
        if (qi == 0 && std::count(cold_runs.begin(), cold_runs.end(), rendered) !=
                           static_cast<std::ptrdiff_t>(cold_runs.size())) {
          std::fprintf(stderr, "COLD MISMATCH: a cold first answer differs from the warm one\n");
          return 1;
        }
      } else if (rendered != reference_runs[qi]) {
        std::fprintf(stderr,
                     "PARALLEL MISMATCH at %d threads, question %zu: top-k differs\n",
                     threads, qi);
        return 1;
      }
    }
    if (threads == 1) reference_seconds = wall_s;
    std::printf("%-8d %10.2f %10.2f %8.2fx %9.2f %12lld\n", threads, wall_s, cpu_s,
                reference_seconds / wall_s, cpu_s / wall_s,
                static_cast<long long>(num_expl));
    json.BeginResult();
    json.Add("phase", std::string("warm_sweep"));
    json.Add("threads", static_cast<int64_t>(threads));
    json.Add("wall_s", wall_s);
    json.Add("cpu_s", cpu_s);
    json.Add("speedup", reference_seconds / wall_s);
    json.Add("explanations", num_expl);
  }
  std::printf("\ntop-k byte-identical across all thread counts\n");
  if (!json_path.empty()) json.Write(json_path);
  return 0;
}
