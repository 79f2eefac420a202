// Incremental maintenance vs from-scratch mining (DESIGN.md §16): mines a
// crime-shaped base table, appends a small batch through
// Engine::AppendAndRemine (PatternMaintainer folds only the delta and
// re-fits only touched fragments), and compares the wall time against a
// cold ARP-MINE of the full table. The maintained pattern set must be
// byte-identical to the scratch set — a faster-but-different result would
// measure nothing — so the bench fails hard on any serialization mismatch.
//
// The sweep runs at 1 and 4 threads (scratch mine and maintainer alike) and
// records the host's hardware thread count: the maintainer stages its group
// folds and fragment re-fits on the shared pool, so its per-batch time
// should fall with threads the way the scratch mine's does.
//
// Expected shape: speedup grows as the append shrinks relative to the
// table, because the maintenance cost is dominated by re-fitting the
// fragments the delta touches, not by the table size. At the paper-scale
// 1M sweep (CAPE_BENCH_FULL=1) the 1% append clears 5x over scratch; the
// default 250k quick mode lands lower at 1% (~3-4x) because the scratch
// baseline shrinks faster than the per-batch fold floor.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "datagen/crime.h"
#include "pattern/pattern_io.h"

using namespace cape;         // NOLINT
using namespace cape::bench;  // NOLINT

namespace {

/// Prefix copy via row appends: the grown engines append the tail rows one
/// batch at a time, so the scratch twin must build its dictionaries in the
/// same first-seen order for the serialized sets to be comparable bytes.
TablePtr PrefixTable(const Table& pool, int64_t size) {
  auto table = std::make_shared<Table>(pool.schema());
  table->Reserve(size);
  for (int64_t r = 0; r < size; ++r) {
    CheckOk(table->AppendRow(pool.GetRow(r)), "AppendRow");
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Incremental mining",
         "AppendAndRemine vs from-scratch ARP-MINE (Crime, A=7) — byte-identical");
  const std::string json_path = ParseJsonPath(argc, argv);

  CrimeOptions data;
  data.num_rows = std::getenv("CAPE_BENCH_FULL") != nullptr ? 1'000'000 : 250'000;
  data.num_attrs = 7;
  data.seed = 7;
  auto pool = CheckResult(GenerateCrime(data), "GenerateCrime");
  const int64_t n = pool->num_rows();

  MiningConfig config = PaperMiningConfig();
  config.max_pattern_size = 3;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads available: %u (wall speedup is bounded by this)\n\n", hw);

  BenchJson json("bench_incremental_mining");
  json.AddConfig("dataset", "crime");
  json.AddConfig("rows", n);
  json.AddConfig("num_attrs", static_cast<int64_t>(data.num_attrs));
  json.AddConfig("max_pattern_size", static_cast<int64_t>(config.max_pattern_size));
  json.AddConfig("hardware_threads", static_cast<int64_t>(hw));

  // Both the scratch mine and the maintainer run at each thread count; the
  // maintained set must match the scratch bytes of every thread count.
  std::string reference_bytes;
  for (int threads : {1, 4}) {
    config.num_threads = threads;
    // One scratch mine serves every append size: each run grows the same
    // prefix-ordered pool to the same n rows, so the final content (and its
    // dictionaries) is identical across deltas.
    auto scratch_table = PrefixTable(*pool, n);
    Engine scratch = CheckResult(Engine::FromTable(scratch_table), "Engine::FromTable");
    scratch.mining_config() = config;
    Stopwatch scratch_clock;
    CheckOk(scratch.MinePatterns("ARP-MINE"), "scratch MinePatterns");
    const double scratch_s = scratch_clock.ElapsedNanos() * 1e-9;
    const std::string scratch_bytes =
        SerializePatternSet(scratch.patterns(), scratch.schema());
    if (reference_bytes.empty()) reference_bytes = scratch_bytes;
    if (scratch_bytes != reference_bytes) {
      std::fprintf(stderr, "[bench] scratch pattern set differs at %d threads\n", threads);
      return 1;
    }
    std::printf("threads %d: scratch ARP-MINE of %lld rows: %.3fs, %zu patterns\n", threads,
                static_cast<long long>(n), scratch_s, scratch.patterns().size());

    std::printf("%-10s %14s %14s %10s %10s\n", "delta", "warmup(s)", "append(s)",
                "speedup", "identical");
    const std::vector<int64_t> deltas = {1, n / 1000, n / 100};
    for (int64_t delta : deltas) {
      // Steady state, not cold start: the first AppendAndRemine builds the
      // maintainer (a full-table absorb — comparable to a mine), so a
      // one-row warmup append pays that once and the timed append measures
      // what a live server pays per batch. Base + warmup + delta = the same
      // n rows in the same order as the scratch twin.
      Engine engine =
          CheckResult(Engine::FromTable(PrefixTable(*pool, n - delta - 1)), "FromTable");
      engine.mining_config() = config;
      CheckOk(engine.MinePatterns("ARP-MINE"), "initial MinePatterns");
      Stopwatch warmup_clock;
      CheckOk(engine.AppendAndRemine({pool->GetRow(n - delta - 1)}), "warmup append");
      const double warmup_s = warmup_clock.ElapsedNanos() * 1e-9;

      std::vector<Row> rows;
      rows.reserve(static_cast<size_t>(delta));
      for (int64_t r = n - delta; r < n; ++r) rows.push_back(pool->GetRow(r));
      Stopwatch append_clock;
      CheckOk(engine.AppendAndRemine(rows), "AppendAndRemine");
      const double append_s = append_clock.ElapsedNanos() * 1e-9;

      const bool identical =
          SerializePatternSet(engine.patterns(), engine.schema()) == scratch_bytes;
      const double speedup = append_s > 0 ? scratch_s / append_s : 0.0;
      std::printf("%-10lld %14.3f %14.3f %9.1fx %10s\n", static_cast<long long>(delta),
                  warmup_s, append_s, speedup, identical ? "yes" : "NO");
      if (!identical) {
        std::fprintf(stderr,
                     "[bench] maintained pattern set diverged from scratch at "
                     "delta=%lld, %d threads — incremental maintenance is broken\n",
                     static_cast<long long>(delta), threads);
        return 1;
      }
      if (engine.run_stats().maint_full_remines != 0) {
        std::fprintf(stderr,
                     "[bench] maintenance degraded to a full re-mine at delta=%lld — "
                     "the measurement is not of the incremental path\n",
                     static_cast<long long>(delta));
        return 1;
      }

      json.BeginResult();
      json.Add("threads", static_cast<int64_t>(threads));
      json.Add("delta_rows", delta);
      json.Add("scratch_s", scratch_s);
      json.Add("maintainer_build_s", warmup_s);
      json.Add("incremental_s", append_s);
      json.Add("speedup_vs_scratch", speedup);
      json.Add("patterns", static_cast<int64_t>(engine.patterns().size()));
      json.Add("fragments_refit", engine.run_stats().maint_patterns_revalidated);
      json.Add("byte_identical", static_cast<int64_t>(identical ? 1 : 0));
    }
    std::printf("\n");
  }

  if (!json_path.empty()) json.Write(json_path);
  return 0;
}
