#include "setup.h"

#include <cstdio>

#include "pattern/pattern_io.h"
#include "relational/operators.h"
#include "storage/paged_table.h"

namespace capebench {

using namespace cape;  // NOLINT

namespace {

constexpr int64_t kExplainRows = 30000;

}  // namespace

CrimeOptions CrimeData(uint64_t seed, int64_t rows) {
  CrimeOptions data;
  data.num_rows = rows;
  data.num_attrs = 7;
  data.seed = seed;
  return data;
}

MiningConfig PaperConfig(int psi) {
  MiningConfig config;
  config.max_pattern_size = psi;
  config.local_gof_threshold = 0.5;
  config.local_support_threshold = 15;
  config.global_confidence_threshold = 0.5;
  config.global_support_threshold = 15;
  config.agg_functions = {AggFunc::kCount};
  return config;
}

MiningConfig LooseConfig() {
  MiningConfig config = PaperConfig(4);
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.2;
  config.global_support_threshold = 10;
  return config;
}

TablePtr Generate(const CrimeOptions& data, RunResult* r) {
  ScopedSpan span("datagen.generate");
  const int64_t start = NowNanos();
  TablePtr table = Must(GenerateCrime(data), "GenerateCrime");
  r->AddSample("datagen.generate_s", "s", SecondsSince(start));
  return table;
}

TablePtr TimedOpen(const std::string& path, int64_t budget_bytes, RunResult* r) {
  ScopedSpan span("storage.open");
  const int64_t start = NowNanos();
  TablePtr table = Must(OpenPagedTable(path, budget_bytes), "OpenPagedTable");
  r->AddSample("storage.open_s", "s", SecondsSince(start));
  return table;
}

bool TimedMine(Engine* engine, const std::string& name, RunResult* r) {
  const int64_t start = NowNanos();
  Status status;
  {
    ScopedSpan span("core.mine");
    status = engine->MinePatterns("ARP-MINE");
  }
  const double seconds = SecondsSince(start);
  ++r->attempted;
  if (!status.ok()) {
    ++r->failed;
    std::fprintf(stderr, "capebench: mine failed: %s\n", status.ToString().c_str());
    return false;
  }
  r->AddTiming(name, "s", seconds);
  return true;
}

void RecordMiningProfile(const Engine& engine, RunResult* r) {
  const MiningProfile& p = engine.mining_profile();
  r->AddSample("pattern.query_s", "s", p.query_ns * 1e-9);
  r->AddSample("pattern.regression_s", "s", p.regression_ns * 1e-9);
  r->AddSample("pattern.other_s", "s", p.other_ns() * 1e-9);
  r->AddSample("pattern.cpu_s", "s", p.cpu_ns * 1e-9);
  r->AddSample("common.mine_parallelism", "ratio",
               p.total_ns > 0 ? static_cast<double>(p.cpu_ns) / p.total_ns : 0.0);
  r->AddSample("pattern.queries", "count", static_cast<double>(p.num_queries));
  r->AddSample("pattern.sorts", "count", static_cast<double>(p.num_sorts));
  r->AddSample("pattern.local_fits", "count", static_cast<double>(p.num_local_fits));
  r->AddSample("pattern.candidates", "count", static_cast<double>(p.num_candidates));
  r->AddSample("pattern.rows_scanned", "count", static_cast<double>(p.num_rows_scanned));
  r->AddSample("pattern.patterns", "count",
               static_cast<double>(engine.patterns().size()));
  r->AddSample("pattern.local_patterns", "count",
               static_cast<double>(engine.patterns().NumLocalPatterns()));
}

void CheckExactCounters(const MiningProfile& profile, const PatternSet& patterns,
                        const std::string& prefix, RunResult* r) {
  const std::map<std::string, int64_t> counts = {
      {"pattern.queries", profile.num_queries},
      {"pattern.sorts", profile.num_sorts},
      {"pattern.local_fits", profile.num_local_fits},
      {"pattern.candidates", profile.num_candidates},
      {"pattern.patterns", static_cast<int64_t>(patterns.size())},
      {"pattern.local_patterns", patterns.NumLocalPatterns()},
  };
  for (const auto& [name, value] : counts) {
    const auto [it, inserted] = r->exact.emplace(prefix + name, value);
    r->Check(inserted || it->second == value,
             name + " differs between repeats of one mine");
  }
}

std::vector<Engine> SetUpExplainEngines(const Args& args, int data_sets, RunResult* r) {
  std::vector<Engine> engines;
  engines.reserve(static_cast<size_t>(data_sets));
  for (int set = 0; set < data_sets; ++set) {
    ScopedSpan setup("bench.setup");
    const int64_t start = NowNanos();
    const CrimeOptions data =
        CrimeData(args.seed * static_cast<uint64_t>(data_sets) + set, kExplainRows);
    Engine engine = Must(Engine::FromTable(Generate(data, r)), "Engine::FromTable");
    engine.mining_config() = LooseConfig();
    engine.set_num_threads(kThreads);
    if (!TimedMine(&engine, "setup_mine_s", r)) {
      Die("set-up mine", Status::Internal("failed"));
    }
    RecordMiningProfile(engine, r);
    CheckExactCounters(engine.mining_profile(), engine.patterns(),
                       "set" + std::to_string(set) + ".", r);
    r->AddSample("setup_s", "s", SecondsSince(start));
    engines.push_back(std::move(engine));
  }
  return engines;
}

std::vector<UserQuestion> LargestGroupQuestions(const Engine& engine,
                                                const std::vector<std::string>& group_by,
                                                int count, Direction dir, RunResult* r) {
  std::vector<int> cols;
  for (const std::string& name : group_by) {
    cols.push_back(engine.schema().GetFieldIndex(name));
  }
  TablePtr sorted;
  {
    ScopedSpan span("relational.largest_groups");
    TablePtr grouped = Must(
        GroupByAggregate(*engine.table(), cols, {AggregateSpec::CountStar("cnt")}),
        "GroupByAggregate");
    sorted = Must(SortTable(*grouped, {SortKey{static_cast<int>(cols.size()), false}}),
                  "SortTable");
  }
  std::vector<UserQuestion> questions;
  for (int64_t row = 0;
       row < sorted->num_rows() && static_cast<int>(questions.size()) < count; ++row) {
    std::vector<Value> values;
    for (size_t c = 0; c < cols.size(); ++c) {
      values.push_back(sorted->GetValue(row, static_cast<int>(c)));
    }
    const int64_t start = NowNanos();
    Result<UserQuestion> question = [&] {
      ScopedSpan span("core.make_question");
      return engine.MakeQuestion(group_by, values, AggFunc::kCount, "*", dir);
    }();
    r->AddSample("explain.make_question_us", "us", SecondsSince(start) * 1e6);
    questions.push_back(Must(std::move(question), "MakeQuestion"));
  }
  return questions;
}

std::string Serialize(const Engine& engine) {
  ScopedSpan span("pattern.serialize");
  return SerializePatternSet(engine.patterns(), engine.schema());
}

std::string RenderAnswer(const Engine& engine, const ExplainResult& result) {
  std::string out = engine.RenderExplanations(result.explanations);
  for (const Explanation& e : result.explanations) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g\n", e.score);
    out += buf;
  }
  return out;
}

void TraceThisRep(const Args& args, int rep) {
  if (args.trace) Tracer::Get().set_enabled(rep % 2 == 0);
}

}  // namespace capebench
