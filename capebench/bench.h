#ifndef CAPEBENCH_BENCH_H_
#define CAPEBENCH_BENCH_H_

// Shared pieces of the capebench binary: command-line arguments, the
// in-memory span tracer, per-run metric series, and the run result that
// main.cc renders as the report and the final result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace capebench {

/// Worker threads for mining and one-shot explanation, fixed (not read from
/// the host) so the work counters of two hosts stay comparable.
constexpr int kThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the report, the span dump and scratch files (heap file).
  std::string out_dir = ".";
  /// Provenance passed in by run.py.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) { return (NowNanos() - start_ns) * 1e-9; }

/// One recorded call into a layer. `name` is "<layer>.<call>"; `parent` is
/// the index of the enclosing span (-1 for a root); spans of one serve
/// request share `request_id` (0 elsewhere).
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t request_id = 0;
};

/// Process-wide span store. Disabled (the end-to-end runs) it records
/// nothing and every call is one branch. Spans stay in memory until the run
/// ends; the parent of a ScopedSpan is the innermost open ScopedSpan of the
/// same thread.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the calling thread's innermost open span.
  int64_t Begin(const std::string& name);
  void End(int64_t id);
  /// Records a finished span with explicit times and parent (used for serve
  /// requests, which start on the sender thread and end on the receiver).
  void Record(const std::string& name, int64_t start_ns, int64_t end_ns, int64_t parent,
              int64_t request_id);
  size_t size() const;
  /// Self time (duration minus the union of its children's intervals)
  /// summed per layer, the part of a span name before the first '.'.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Writes every span as one JSON document.
  cape::Status WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Repeat count for a phase given `seconds` of budget and the nominal cost
/// of one repeat on a 4-core Xeon: fixed by the arguments, not by measured
/// time, so every run with the same --seconds does the same work.
inline int Reps(double seconds, double nominal_seconds_per_rep, int min_reps) {
  const int reps = static_cast<int>(seconds / nominal_seconds_per_rep + 0.5);
  return reps > min_reps ? reps : min_reps;
}

/// Sorted-sample statistics. Quantiles interpolate linearly between order
/// statistics.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);

/// Everything a workload run produces.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failed output checks; the run is correct only when this stays empty.
  std::vector<std::string> check_failures;

  /// Raw timing and count samples, reported with n, median and quartiles.
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::string> series_units;

  /// Values of the metrics BENCHMARK.json names.
  std::map<std::string, double> metrics;
  /// Counters that must repeat exactly across runs of the same seed.
  std::map<std::string, int64_t> exact;
  /// Extra pre-rendered JSON members for the report (e.g. the serve ladder).
  std::map<std::string, std::string> extra_json;

  /// Set for --trace 1 runs, which alternate traced and untraced repeats.
  bool trace_run = false;

  void AddSample(const std::string& name, const std::string& unit, double value) {
    series[name].push_back(value);
    series_units[name] = unit;
  }
  /// A timing of a measured repeat. In a trace run, repeats made with
  /// tracing off go to "untraced:<name>", the base of the tracing overhead.
  void AddTiming(const std::string& name, const std::string& unit, double value) {
    const bool untraced = trace_run && !Tracer::Get().enabled();
    AddSample(untraced ? "untraced:" + name : name, unit, value);
  }
  /// The samples of `name` (empty when none were taken).
  std::vector<double> Samples(const std::string& name) const {
    const auto it = series.find(name);
    return it == series.end() ? std::vector<double>() : it->second;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Aborts the run (no result line) when a call that must succeed fails.
void Die(const std::string& what, const cape::Status& status);

template <typename T>
T Must(cape::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).ValueOrDie();
}

inline void Must(const cape::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// VmHWM of this process in MB.
double PeakRssMb();

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// The workloads (workloads.cc). Each fills `result`.
void RunMine(const Args& args, RunResult* result);
void RunExplain(const Args& args, RunResult* result);

}  // namespace capebench

#endif  // CAPEBENCH_BENCH_H_
