// capebench: the CAPE benchmark binary (run it through run.py).
//
//   capebench --workload <mine|explain> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <sha>] [--source-digest <hex>]
//
// Prints the full report (provenance, every series with its quartiles, the
// checks) as one JSON line, then the result line: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace capebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json (run.py compares the two).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"ok_rate", "ratio"},
    {"p50_ms", "ms"}, {"tail_ms", "ms"},     {"aux_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"storage.write_s", "s"},
    {"storage.open_s", "s"},
    {"storage.page_misses", "count"},
    {"storage.page_hits", "count"},
    {"storage.page_evictions", "count"},
    {"storage.bytes_read", "bytes"},
    {"storage.passes", "ratio"},
    {"pattern.query_s", "s"},
    {"pattern.regression_s", "s"},
    {"pattern.other_s", "s"},
    {"pattern.cpu_s", "s"},
    {"common.mine_parallelism", "ratio"},
    {"pattern.queries", "count"},
    {"pattern.sorts", "count"},
    {"pattern.local_fits", "count"},
    {"pattern.candidates", "count"},
    {"pattern.rows_scanned", "count"},
    {"pattern.patterns", "count"},
    {"pattern.local_patterns", "count"},
    {"pattern.maintainer_build_s", "s"},
    {"pattern.maint_revalidated", "count"},
    {"pattern.maint_retained", "count"},
    {"pattern.maint_reuse_ratio", "ratio"},
    {"pattern.maint_full_remines", "count"},
    {"explain.cpu_s", "s"},
    {"explain.parallelism", "ratio"},
    {"explain.relevant_patterns", "count"},
    {"explain.pairs", "count"},
    {"explain.pairs_pruned", "count"},
    {"explain.prune_ratio", "ratio"},
    {"explain.tuples_checked", "count"},
    {"explain.candidates", "count"},
    {"explain.single_thread_p50_ms", "ms"},
    {"explain.make_question_us", "us"},
    {"explain.session_p50_ms", "ms"},
    {"explain.session_p90_ms", "ms"},
    {"explain.session_agg_tables", "count"},
    {"sql.parse_us", "us"},
    {"server.max_rps", "1/s"},
    {"server.service_ms", "ms"},
    {"server.queue_wait_ms", "ms"},
    {"server.io_ms", "ms"},
    {"server.peak_queued", "count"},
    {"server.ok", "count"},
    {"server.not_ok", "count"},
    {"client.late_ms_p99", "ms"},
    {"client.late_ms_max", "ms"},
    {"bench.self_s", "s"},
    {"datagen.self_s", "s"},
    {"storage.self_s", "s"},
    {"relational.self_s", "s"},
    {"core.self_s", "s"},
    {"pattern.self_s", "s"},
    {"explain.self_s", "s"},
    {"sql.self_s", "s"},
    {"server.self_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// The timing series each workload's tracing overhead is computed on.
const char* PrimarySeries(const std::string& workload) {
  return workload == "explain" ? "explain_ms" : "mine_s";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "capebench: %s\nusage: capebench "
               "--workload <mine|explain> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--commit <sha>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string Provenance(const Args& args) {
  return "{\"commit\":" + JsonString(args.commit) +
         ",\"source_digest\":" + JsonString(args.source_digest) +
         ",\"build_type\":" + JsonString(CAPEBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(Compiler()) +
         ",\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"threads\":" + std::to_string(kThreads) + "}";
}

std::string SeriesJson(const RunResult& r) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, samples] : r.series) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"unit\":" + JsonString(r.series_units.at(name)) +
           ",\"n\":" + std::to_string(samples.size()) +
           ",\"median\":" + JsonNumber(Median(samples)) +
           ",\"q1\":" + JsonNumber(Quantile(samples, 0.25)) +
           ",\"q3\":" + JsonNumber(Quantile(samples, 0.75)) +
           ",\"min\":" + JsonNumber(Quantile(samples, 0.0)) +
           ",\"max\":" + JsonNumber(Quantile(samples, 1.0)) + "}";
  }
  return out + "}";
}

template <size_t N>
std::string MetricsJson(const RunResult& r, const MetricDef (&defs)[N], bool with_unit) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    if (i > 0) out += ",";
    const auto it = r.metrics.find(defs[i].name);
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    out += JsonString(defs[i].name) + ":";
    out += with_unit ? "{\"value\":" + JsonNumber(value) + ",\"unit\":" +
                           JsonString(defs[i].unit) + "}"
                     : JsonNumber(value);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RunResult r;
  r.trace_run = args.trace;
  Tracer::Get().set_enabled(args.trace);
  if (args.workload == "mine") {
    RunMine(args, &r);
  } else if (args.workload == "explain") {
    RunExplain(args, &r);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  // Per-layer metrics the workload did not set are the medians of their
  // series; layers a workload does not run read 0.
  for (const auto& [name, samples] : r.series) {
    if (r.metrics.count(name) == 0) r.metrics[name] = Median(samples);
  }
  r.metrics["setup_s"] = Median(r.Samples("setup_s"));
  r.metrics["peak_rss_mb"] = PeakRssMb();
  r.metrics["ok_rate"] =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) / r.attempted : 0.0;
  for (const MetricDef& def : kEndToEnd) {
    r.Check(r.metrics[def.name] > 0, std::string("end-to-end metric ") + def.name +
                                         " is not positive");
  }
  const std::string base_name = args.out_dir + "/" + args.workload + "-seed" +
                                std::to_string(args.seed) + "-trace" +
                                (args.trace ? "1" : "0");
  if (args.trace) {
    const std::string primary = PrimarySeries(args.workload);
    const double traced = Median(r.Samples(primary));
    const double untraced = Median(r.Samples("untraced:" + primary));
    r.metrics["trace.overhead_pct"] =
        untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
    r.metrics["trace.spans"] = static_cast<double>(Tracer::Get().size());
    for (const auto& [layer, seconds] : Tracer::Get().SelfSecondsByLayer()) {
      r.metrics[layer + ".self_s"] = seconds;
    }
    Must(Tracer::Get().WriteJson(base_name + ".spans.json"), "writing the spans");
  }

  const bool correct = r.check_failures.empty();
  std::string failures = "[";
  for (size_t i = 0; i < r.check_failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += JsonString(r.check_failures[i]);
  }
  failures += "]";
  std::string report = "{\"report\":\"capebench\",\"workload\":" +
                       JsonString(args.workload) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"seconds\":" + JsonNumber(args.seconds) +
                       ",\"trace\":" + (args.trace ? "1" : "0") +
                       ",\"provenance\":" + Provenance(args) +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"check_failures\":" + failures +
                       ",\"attempted\":" + std::to_string(r.attempted) +
                       ",\"failed\":" + std::to_string(r.failed) +
                       ",\"end_to_end\":" + MetricsJson(r, kEndToEnd, false) +
                       ",\"per_layer\":" + MetricsJson(r, kPerLayer, false) +
                       ",\"series\":" + SeriesJson(r) + ",\"exact\":{";
  bool first = true;
  for (const auto& [name, value] : r.exact) {
    if (!first) report += ",";
    first = false;
    report += JsonString(name);
    report += ':';
    report += std::to_string(value);
  }
  report += "}";
  for (const auto& [name, json] : r.extra_json) {
    report += ",";
    report += JsonString(name);
    report += ':';
    report += json;
  }
  report += "}";
  std::ofstream(base_name + ".report.json") << report << "\n";

  for (const std::string& failure : r.check_failures) {
    std::fprintf(stderr, "capebench: CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              args.trace ? MetricsJson(r, kPerLayer, true).c_str()
                         : MetricsJson(r, kEndToEnd, true).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace capebench

int main(int argc, char** argv) { return capebench::Main(argc, argv); }
