// The batch workloads: mine (resident ARP-MINE interleaved with incremental
// appends; its trace run adds ARP-MINE over a heap file through a small page
// cache) and explain (one-shot EXPL-GEN-OPT over the largest groups). Sizes
// and the reasons for them are in README.md.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "setup.h"
#include "core/engine.h"
#include "datagen/crime.h"
#include "storage/paged_table.h"

namespace capebench {

using namespace cape;  // NOLINT

namespace {

// mine: two cities, each set up once (a set-up builds a maintainer, seconds).
constexpr int kMineDataSets = 2;

// mine: resident table and the write phase.
constexpr int64_t kMineRows = 100000;
constexpr int64_t kBatchRows = 200;
constexpr int64_t kMaxBatches = 40;
// Nominal cost of one round (a fresh mine of one city, then one batch
// appended to each city) on a 4-core Xeon.
constexpr double kMineRoundSeconds = 3.5;

// The paged mine of mine's trace run: a heap file mined through a cache of
// a tenth of the file.
constexpr int64_t kPagedRows = 300000;
constexpr int kPagedPatternSize = 3;
constexpr int64_t kPagedBudgetDivisor = 10;
constexpr int kPagedSetups = 3;
constexpr int kPagedReps = 4;
constexpr int kResidentReps = 2;

// explain: twelve data sets, each with 12 LOW questions over three
// attributes and 8 HIGH over four; one pass over the 240 questions takes
// ~11 s. A data set's largest groups move the p50 by ~10% between seeds,
// so the questions are spread over many data sets.
constexpr int kExplainDataSets = 12;
constexpr int kLowQuestions = 12;
constexpr int kHighQuestions = 8;
constexpr double kExplainPassSeconds = 11.0;

/// A table of `generated`'s rows [0, rows).
TablePtr Prefix(const Table& generated, int64_t rows) {
  std::vector<int64_t> ids(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) ids[static_cast<size_t>(i)] = i;
  auto table = std::make_shared<Table>(generated.schema());
  Must(table->AppendRowsFrom(generated, ids), "AppendRowsFrom");
  return table;
}

/// Batch `batch` of the rows generated after the first kMineRows.
std::vector<Row> Batch(const Table& generated, int64_t batch) {
  std::vector<Row> rows;
  rows.reserve(kBatchRows);
  const int64_t first = kMineRows + batch * kBatchRows;
  for (int64_t r = first; r < first + kBatchRows; ++r) {
    rows.push_back(generated.GetRow(r));
  }
  return rows;
}

/// ARP-MINE over a heap file opened non-resident with a page budget of a
/// tenth of the file, a fresh open (cold cache) per repeat, then a resident
/// mine of the same rows as the contrast and the reference answer. Fills
/// the storage.* series; the pattern.* series stay the resident mine's.
void MeasurePaging(const Args& args, RunResult* r) {
  ScopedSpan check("bench.paging");
  const CrimeOptions data = CrimeData(args.seed, kPagedRows);
  const std::string path =
      args.out_dir + "/mine-paged-" + std::to_string(args.seed) + ".cape";
  int64_t budget = 0;
  int64_t file_bytes = 0;
  for (int rep = 0; rep < kPagedSetups; ++rep) {
    const int64_t start = NowNanos();
    {
      ScopedSpan span("storage.write");
      Must(GenerateCrimeToHeapFile(data, path), "GenerateCrimeToHeapFile");
    }
    r->AddSample("storage.write_s", "s", SecondsSince(start));
    file_bytes = static_cast<int64_t>(std::filesystem::file_size(path));
    budget = file_bytes / kPagedBudgetDivisor;
    TimedOpen(path, budget, r);
  }

  std::string reference;
  for (int rep = 0; rep < kPagedReps; ++rep) {
    Engine engine =
        Must(Engine::FromTable(TimedOpen(path, budget, r)), "Engine::FromTable");
    engine.mining_config() = PaperConfig(kPagedPatternSize);
    engine.set_num_threads(kThreads);
    if (!TimedMine(&engine, "paged_mine_s", r)) continue;
    CheckExactCounters(engine.mining_profile(), engine.patterns(), "paged.", r);
    const RunStats stats = engine.run_stats();
    // Raw demand counts only: the cache's own hit rate counts pages that
    // were prefetched and then scanned once as reuse.
    r->AddSample("storage.page_misses", "count", static_cast<double>(stats.page_misses));
    r->AddSample("storage.page_hits", "count", static_cast<double>(stats.page_hits));
    r->AddSample("storage.page_evictions", "count",
                 static_cast<double>(stats.page_evictions));
    r->AddSample("storage.bytes_read", "bytes",
                 static_cast<double>(stats.page_bytes_read));
    r->AddSample("storage.passes", "ratio", static_cast<double>(stats.page_bytes_read) /
                                                static_cast<double>(file_bytes));
    r->Check(stats.page_misses > 0 && stats.page_evictions > 0,
             "paged mine did not page (no misses or no evictions)");
    r->Check(stats.page_bytes_pinned == 0, "pages left pinned after the mine");
    const std::string store = Serialize(engine);
    if (reference.empty()) reference = store;
    r->Check(store == reference, "paged store differs between repeats of one mine");
  }
  std::filesystem::remove(path);

  TablePtr resident;
  {
    ScopedSpan span("datagen.generate");
    resident = Must(GenerateCrime(data), "GenerateCrime");
  }
  for (int rep = 0; rep < kResidentReps; ++rep) {
    Engine engine = Must(Engine::FromTable(resident), "Engine::FromTable");
    engine.mining_config() = PaperConfig(kPagedPatternSize);
    engine.set_num_threads(kThreads);
    if (!TimedMine(&engine, "paged_resident_mine_s", r)) continue;
    r->Check(Serialize(engine) == reference,
             "paged store differs from a resident mine of the same rows");
  }
}

}  // namespace

void RunMine(const Args& args, RunResult* r) {
  // Each set-up is a different city (data set), and the measured mines
  // alternate between them: the append cost follows a city's pattern set
  // and moved ~20% between seeds with one city per run. The generator's
  // rows after the first kMineRows are later draws from the same city (rows
  // past the planted scenario are independent draws), so the appended
  // batches resemble the table they grow.
  std::vector<TablePtr> generated;
  std::vector<TablePtr> mined;  // each city's rows as of its first append
  std::vector<Engine> engines;
  std::vector<std::string> maintained;
  for (int set = 0; set < kMineDataSets; ++set) {
    ScopedSpan setup("bench.setup");
    const int64_t start = NowNanos();
    const uint64_t seed = args.seed * kMineDataSets + static_cast<uint64_t>(set);
    generated.push_back(
        Generate(CrimeData(seed, kMineRows + kBatchRows * kMaxBatches), r));
    Engine engine = Must(Engine::FromTable(Prefix(*generated.back(), kMineRows)),
                         "Engine::FromTable");
    engine.mining_config() = PaperConfig(4);
    engine.set_num_threads(kThreads);
    TimedMine(&engine, "setup_mine_s", r);
    // The first append builds the incremental maintainer: set-up, not a
    // write the user waits on per batch.
    const int64_t build = NowNanos();
    {
      ScopedSpan span("core.append");
      Must(engine.AppendAndRemine(Batch(*generated.back(), 0)), "AppendAndRemine(first)");
    }
    r->AddSample("pattern.maintainer_build_s", "s", SecondsSince(build));
    r->AddSample("setup_s", "s", SecondsSince(start));
    maintained.push_back(Serialize(engine));
    engines.push_back(std::move(engine));
    // The appends grow the engine's table in place, so the measured mines
    // read a copy of the rows as of the first append.
    mined.push_back(Prefix(*generated.back(), kMineRows + kBatchRows));
  }

  RunStats before;
  for (const Engine& engine : engines) {
    const RunStats s = engine.run_stats();
    before.maint_patterns_revalidated += s.maint_patterns_revalidated;
    before.maint_patterns_retained += s.maint_patterns_retained;
  }

  // Rounds of the read path (ARP-MINE from scratch on a fresh Engine, the
  // cities in turn) and the write path (one 200-row batch through each
  // city's maintainer), interleaved so that a slow spell on the host falls
  // on both alike. A trace run alternates tracing per pair of rounds, so
  // traced and untraced repeats cover the same cities.
  std::vector<std::string> reference(kMineDataSets);
  const int rounds = static_cast<int>(std::min<int64_t>(
      kMaxBatches - 1,
      kMineDataSets * Reps(args.seconds / kMineDataSets, kMineRoundSeconds, 2)));
  int64_t batches = 0;
  for (int round = 0; round < rounds; ++round) {
    TraceThisRep(args, round / kMineDataSets);
    const size_t set = static_cast<size_t>(round % kMineDataSets);
    {
      ScopedSpan repeat("bench.repeat");
      Engine fresh = Must(Engine::FromTable(mined[set]), "Engine::FromTable");
      fresh.mining_config() = PaperConfig(4);
      fresh.set_num_threads(kThreads);
      if (TimedMine(&fresh, "mine_s", r)) {
        RecordMiningProfile(fresh, r);
        CheckExactCounters(fresh.mining_profile(), fresh.patterns(),
                           "set" + std::to_string(set) + ".", r);
        const std::string store = Serialize(fresh);
        if (reference[set].empty()) reference[set] = store;
        r->Check(store == reference[set],
                 "pattern store differs between repeats of one mine");
      }
    }
    const int64_t batch = round + 1;
    for (size_t s = 0; s < engines.size(); ++s) {
      ScopedSpan repeat("bench.repeat");
      const std::vector<Row> rows = Batch(*generated[s], batch);
      const int64_t start = NowNanos();
      Status status;
      {
        ScopedSpan span("core.append");
        status = engines[s].AppendAndRemine(rows);
      }
      ++r->attempted;
      if (!status.ok()) {
        ++r->failed;
        std::fprintf(stderr, "capebench: append failed: %s\n", status.ToString().c_str());
        continue;
      }
      r->AddTiming("append_s", "s", SecondsSince(start));
      ++batches;
    }
  }
  Tracer::Get().set_enabled(args.trace);
  for (size_t set = 0; set < engines.size(); ++set) {
    r->Check(reference[set].empty() || reference[set] == maintained[set],
             "maintained store after the first append differs from a scratch mine");
  }

  double revalidated = -static_cast<double>(before.maint_patterns_revalidated);
  double retained = -static_cast<double>(before.maint_patterns_retained);
  int64_t full_remines = 0;
  for (const Engine& engine : engines) {
    const RunStats s = engine.run_stats();
    revalidated += static_cast<double>(s.maint_patterns_revalidated);
    retained += static_cast<double>(s.maint_patterns_retained);
    full_remines += s.maint_full_remines;
  }
  r->metrics["pattern.maint_revalidated"] = batches > 0 ? revalidated / batches : 0.0;
  r->metrics["pattern.maint_retained"] = batches > 0 ? retained / batches : 0.0;
  r->metrics["pattern.maint_reuse_ratio"] =
      revalidated + retained > 0 ? retained / (revalidated + retained) : 0.0;
  r->metrics["pattern.maint_full_remines"] = static_cast<double>(full_remines);
  r->Check(full_remines == 0, "an append fell back to a full re-mine");

  // The maintained sets must equal scratch mines of the grown tables.
  {
    ScopedSpan check("bench.check");
    for (const Engine& engine : engines) {
      Engine scratch = Must(Engine::FromTable(engine.table()), "Engine::FromTable");
      scratch.mining_config() = PaperConfig(4);
      scratch.set_num_threads(kThreads);
      {
        ScopedSpan span("core.mine");
        Must(scratch.MinePatterns(), "MinePatterns(scratch)");
      }
      r->Check(Serialize(scratch) == Serialize(engine),
               "maintained store after the appends differs from a scratch mine");
    }
  }

  if (args.trace) MeasurePaging(args, r);

  r->metrics["p50_ms"] = Median(r->Samples("mine_s")) * 1e3;
  r->metrics["tail_ms"] = Quantile(r->Samples("mine_s"), 0.75) * 1e3;
  r->metrics["aux_ms"] = Median(r->Samples("append_s")) * 1e3;
}

void RunExplain(const Args& args, RunResult* r) {
  std::vector<Engine> engines = SetUpExplainEngines(args, kExplainDataSets, r);

  // 20 questions per data set, each with the engine that answers it.
  struct Asked {
    Engine* engine;
    UserQuestion question;
    bool high;
    std::string reference;
  };
  const std::vector<std::string> low_by = {"primary_type", "community", "year"};
  const std::vector<std::string> high_by = {"primary_type", "community", "year", "month"};
  std::vector<std::vector<Asked>> by_set;
  for (Engine& engine : engines) {
    std::vector<Asked>& set = by_set.emplace_back();
    for (UserQuestion& q :
         LargestGroupQuestions(engine, low_by, kLowQuestions, Direction::kLow, r)) {
      set.push_back(Asked{&engine, std::move(q), false, ""});
    }
    for (UserQuestion& q :
         LargestGroupQuestions(engine, high_by, kHighQuestions, Direction::kHigh, r)) {
      set.push_back(Asked{&engine, std::move(q), true, ""});
    }
  }

  // Reference answers: a 1-thread ExplainSession per data set, the path the
  // server uses.
  {
    ScopedSpan check("bench.check");
    for (std::vector<Asked>& set : by_set) {
      ExplainSession session =
          Must(set.front().engine->MakeExplainSession(), "MakeExplainSession");
      session.config().num_threads = 1;
      for (Asked& a : set) {
        const int64_t start = NowNanos();
        Result<ExplainResult> answer = [&] {
          ScopedSpan span("explain.session");
          return session.Explain(a.question);
        }();
        r->AddSample("session_ms", "ms", SecondsSince(start) * 1e3);
        a.reference = RenderAnswer(*a.engine, Must(std::move(answer), "session Explain"));
      }
    }
  }

  // The measured order takes one question of each data set in turn, so a
  // slow spell on the host falls on every data set alike.
  std::vector<Asked> asked;
  for (size_t k = 0; k < static_cast<size_t>(kLowQuestions + kHighQuestions); ++k) {
    for (std::vector<Asked>& set : by_set) {
      if (k < set.size()) asked.push_back(std::move(set[k]));
    }
  }

  ExplainProfile pass_profile;
  double pass_wall_s = 0.0;
  const int passes = Reps(args.seconds, kExplainPassSeconds, 2);
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < asked.size(); ++i) {
      // Whole rounds over the data sets alternate tracing in a trace run.
      TraceThisRep(args, static_cast<int>(i / by_set.size()));
      ScopedSpan repeat("bench.repeat");
      const Asked& a = asked[i];
      const int64_t start = NowNanos();
      Result<ExplainResult> answer = [&] {
        ScopedSpan span("core.explain");
        return a.engine->Explain(a.question);
      }();
      const double ms = SecondsSince(start) * 1e3;
      ++r->attempted;
      if (!answer.ok() || answer->partial) {
        ++r->failed;
        continue;
      }
      r->AddTiming("explain_ms", "ms", ms);
      if (a.high) r->AddTiming("explain_high_ms", "ms", ms);
      r->Check(RenderAnswer(*a.engine, *answer) == a.reference,
               "4-thread top-k differs from the 1-thread session answer");
      if (pass == 0) {
        const ExplainProfile& p = answer->profile;
        pass_wall_s += ms * 1e-3;
        pass_profile.cpu_ns += p.cpu_ns;
        pass_profile.num_relevant_patterns += p.num_relevant_patterns;
        pass_profile.num_refinement_pairs += p.num_refinement_pairs;
        pass_profile.num_pairs_pruned += p.num_pairs_pruned;
        pass_profile.num_tuples_checked += p.num_tuples_checked;
        pass_profile.num_candidates += p.num_candidates;
      }
    }
  }
  Tracer::Get().set_enabled(args.trace);

  if (args.trace) {
    // The first data set's questions at one thread: what the pool costs or
    // saves. Then the serving path over the same data set.
    Engine& first = engines.front();
    first.set_num_threads(1);
    for (const Asked& a : asked) {
      if (a.engine != &first) continue;
      const int64_t start = NowNanos();
      ScopedSpan span("core.explain");
      if (first.Explain(a.question).ok()) {
        r->AddSample("explain.single_thread_ms", "ms", SecondsSince(start) * 1e3);
      }
    }
    first.set_num_threads(kThreads);
    MeasureServing(first, args, r);
  }

  r->metrics["explain.cpu_s"] = pass_profile.cpu_ns * 1e-9;
  r->metrics["explain.parallelism"] =
      pass_wall_s > 0 ? pass_profile.cpu_ns * 1e-9 / pass_wall_s : 0.0;
  r->metrics["explain.relevant_patterns"] =
      static_cast<double>(pass_profile.num_relevant_patterns);
  r->metrics["explain.pairs"] = static_cast<double>(pass_profile.num_refinement_pairs);
  r->metrics["explain.pairs_pruned"] = static_cast<double>(pass_profile.num_pairs_pruned);
  r->metrics["explain.prune_ratio"] =
      pass_profile.num_refinement_pairs > 0
          ? static_cast<double>(pass_profile.num_pairs_pruned) /
                pass_profile.num_refinement_pairs
          : 0.0;
  r->metrics["explain.tuples_checked"] =
      static_cast<double>(pass_profile.num_tuples_checked);
  r->metrics["explain.candidates"] = static_cast<double>(pass_profile.num_candidates);
  r->metrics["explain.single_thread_p50_ms"] =
      Median(r->Samples("explain.single_thread_ms"));

  r->metrics["p50_ms"] = Median(r->Samples("explain_ms"));
  r->metrics["tail_ms"] = Quantile(r->Samples("explain_ms"), 0.90);
  r->metrics["aux_ms"] = Median(r->Samples("explain_high_ms"));
}

}  // namespace capebench
