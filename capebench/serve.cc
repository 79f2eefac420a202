// The serving measurement of explain's trace run: an explain pattern set
// behind CapeServer on loopback, driven open loop by one client connection
// (a sender thread on a fixed schedule, a receiver thread matching
// responses by id). Latency runs from each request's due time, so a stall
// also counts against the requests queued behind it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "relational/operators.h"
#include "server/protocol.h"
#include "server/server.h"
#include "setup.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace capebench {

using namespace cape;          // NOLINT
using namespace cape::server;  // NOLINT

namespace {

constexpr int kServeWorkers = 3;
constexpr const char* kTableName = "crime";
constexpr int kLowLines = 200;
constexpr int kHighLines = 200;
constexpr int kTopK = 5;
/// Requests carry a deadline far beyond any step, so overload shows as
/// latency, never as shed or truncated answers.
constexpr int64_t kDeadlineMs = 30000;
/// Popularity of the distinct lines is Zipf with this exponent.
constexpr double kZipfExponent = 0.7;

constexpr double kNominalRps = 400.0;
constexpr double kPeakRps = 700.0;
/// serve max rate: the highest ladder rate whose p99 stays within this
/// limit without a growing backlog.
constexpr double kLatencyLimitMs = 50.0;
constexpr double kLadderGrowth = 1.15;
constexpr double kLadderMaxRps = 8000.0;
/// The ladder stops after this long even if every step passes.
constexpr double kLadderSeconds = 3.0;
/// Requests per step: enough for ten beyond the p99.
constexpr size_t kStepRequests = 1000;
/// The generator has fallen behind its schedule (the run is invalid, not
/// slow) when its median lateness exceeds kMaxLateP50Ms or its p99 exceeds
/// the latency limit. Single late sends of a few ms are timer and vCPU
/// scheduling jitter; they are reported, and count in the latency.
constexpr double kMaxLateP50Ms = 2.0;
/// Requests in the one-in-flight pass that measures service time: the
/// first requests of the nominal stream, so queue wait compares like with
/// like.
constexpr size_t kClosedLoopRequests = 400;
constexpr int64_t kDrainTimeoutNs = 60LL * 1000 * 1000 * 1000;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Uniform(uint64_t* state) { return (SplitMix64(state) >> 11) * 0x1.0p-53; }

std::string Literal(const Value& v) {
  if (v.type() == DataType::kString) {
    std::string out = "'";
    for (char c : v.string_value()) {
      out += c;
      if (c == '\'') out += '\'';
    }
    return out + "'";
  }
  return v.ToString();
}

/// `count` distinct groups of GROUP BY `group_by`, drawn uniformly with the
/// seed, as EXPLAIN WHY statements in direction `dir`.
void AddStatements(const Engine& engine, const std::vector<std::string>& group_by,
                   int count, const char* dir, uint64_t* rng,
                   std::vector<std::string>* out) {
  std::vector<int> cols;
  for (const std::string& name : group_by) {
    cols.push_back(engine.schema().GetFieldIndex(name));
  }
  const TablePtr groups = Must(
      GroupByAggregate(*engine.table(), cols, {AggregateSpec::CountStar("cnt")}),
      "GroupByAggregate");
  std::vector<int64_t> rows(static_cast<size_t>(groups->num_rows()));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  const size_t take = std::min(rows.size(), static_cast<size_t>(count));
  for (size_t i = 0; i < take; ++i) {
    const size_t j = i + static_cast<size_t>(SplitMix64(rng) % (rows.size() - i));
    std::swap(rows[i], rows[j]);
    std::string sql = std::string("EXPLAIN WHY count(*) IS ") + dir + " FOR ";
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c > 0) sql += ", ";
      sql += group_by[c] + " = ";
      sql += Literal(groups->GetValue(rows[i], static_cast<int>(c)));
    }
    out->push_back(sql + " FROM " + kTableName);
  }
}

/// Draws `n` line indices with Zipf popularity over a seeded ranking.
std::vector<int> DrawStream(size_t lines, size_t n, uint64_t* rng) {
  std::vector<int> rank(lines);
  for (size_t i = 0; i < lines; ++i) rank[i] = static_cast<int>(i);
  for (size_t i = lines; i > 1; --i) {
    std::swap(rank[i - 1], rank[static_cast<size_t>(SplitMix64(rng) % i)]);
  }
  std::vector<double> cdf(lines);
  double total = 0.0;
  for (size_t i = 0; i < lines; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  std::vector<int> stream(n);
  for (size_t k = 0; k < n; ++k) {
    const double u = Uniform(rng) * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    stream[k] = rank[std::min(static_cast<size_t>(it - cdf.begin()), lines - 1)];
  }
  return stream;
}

/// One request of a step, filled in by the sender and the receiver.
struct Slot {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  std::atomic<int64_t> recv_ns{0};
  int64_t elapsed_ms = 0;
  Outcome outcome = Outcome::kError;
};

struct StepStats {
  double rate = 0.0;
  int64_t requests = 0;
  int64_t not_ok = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;
  /// Server-side elapsed_ms of each answered request, in send order.
  std::vector<double> elapsed_ms;
  double mean_io_ms = 0.0;
  int64_t outstanding_at_end = 0;
  double first_quarter_p50_ms = 0.0;
  double last_quarter_p50_ms = 0.0;
  std::vector<double> latencies_ms;

  bool GrowingBacklog() const {
    // More requests outstanding when the last one is sent than arrive within
    // the latency limit, or latency that doubles across the step.
    const auto within_limit = static_cast<int64_t>(rate * kLatencyLimitMs / 1e3);
    return outstanding_at_end > std::max<int64_t>(8, within_limit) ||
           last_quarter_p50_ms > 2.0 * first_quarter_p50_ms + 5.0;
  }
  bool GeneratorBehind() const {
    return late_p50_ms > kMaxLateP50Ms || late_p99_ms > kLatencyLimitMs;
  }
  bool Passes() const {
    return not_ok == 0 && p99_ms <= kLatencyLimitMs && !GrowingBacklog() &&
           !GeneratorBehind();
  }
  std::string Json() const {
    return "{\"rate\":" + JsonNumber(rate) + ",\"requests\":" + std::to_string(requests) +
           ",\"not_ok\":" + std::to_string(not_ok) + ",\"p50_ms\":" + JsonNumber(p50_ms) +
           ",\"p99_ms\":" + JsonNumber(p99_ms) +
           ",\"late_p50_ms\":" + JsonNumber(late_p50_ms) +
           ",\"late_p99_ms\":" + JsonNumber(late_p99_ms) +
           ",\"late_max_ms\":" + JsonNumber(late_max_ms) +
           ",\"outstanding_at_end\":" + std::to_string(outstanding_at_end) +
           ",\"first_quarter_p50_ms\":" + JsonNumber(first_quarter_p50_ms) +
           ",\"last_quarter_p50_ms\":" + JsonNumber(last_quarter_p50_ms) +
           ",\"growing_backlog\":" + (GrowingBacklog() ? "true" : "false") +
           ",\"generator_behind\":" + (GeneratorBehind() ? "true" : "false") +
           ",\"passes\":" + (Passes() ? "true" : "false") + "}";
  }
};

int64_t ParseField(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

Outcome ParseOutcome(const std::string& line) {
  static const Outcome kAll[] = {Outcome::kOk,         Outcome::kDegraded,
                                 Outcome::kTruncated,  Outcome::kShed,
                                 Outcome::kOverloaded, Outcome::kRetryAfter,
                                 Outcome::kError};
  for (Outcome o : kAll) {
    if (line.find(std::string("\"outcome\":\"") + OutcomeToString(o) + "\"") !=
        std::string::npos) {
      return o;
    }
  }
  return Outcome::kError;
}

/// The client side of one loopback connection.
class Client {
 public:
  Client(const std::vector<std::string>* statements,
         const std::vector<std::string>* expected, RunResult* r)
      : statements_(statements), expected_(expected), r_(r) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IOError("socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IOError("connect to the server");
    }
    return Status::OK();
  }

  /// Sends `stream` open loop at `rate` (closed loop, one in flight, when
  /// rate <= 0) and waits for every response.
  StepStats Run(const std::vector<int>& stream, double rate, const char* span_name) {
    const size_t n = stream.size();
    std::vector<Slot> slots(n);
    const int64_t first_id = next_id_;
    next_id_ += static_cast<int64_t>(n);
    std::atomic<int64_t> received{0};
    const int64_t step_span =
        Tracer::Get().enabled() ? Tracer::Get().Begin(span_name) : -1;

    std::thread receiver([&] { Receive(stream, first_id, &slots, &received); });
    const int64_t start = NowNanos() + 1000000;
    int64_t outstanding_at_end = 0;
    for (size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      if (rate > 0) {
        slot.due_ns = start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(slot.due_ns)));
      } else {
        while (received.load(std::memory_order_acquire) < static_cast<int64_t>(i)) {
          std::this_thread::yield();
        }
        slot.due_ns = NowNanos();
      }
      const std::string line =
          "[id=" + std::to_string(first_id + static_cast<int64_t>(i)) +
          " deadline_ms=" + std::to_string(kDeadlineMs) +
          " top_k=" + std::to_string(kTopK) + "] " +
          (*statements_)[static_cast<size_t>(stream[i])] + "\n";
      slot.sent_ns = NowNanos();
      SendAll(line);
    }
    outstanding_at_end =
        static_cast<int64_t>(n) - received.load(std::memory_order_acquire);
    receiver.join();
    if (step_span >= 0) Tracer::Get().End(step_span);

    StepStats stats;
    stats.rate = rate;
    stats.requests = static_cast<int64_t>(n);
    stats.outstanding_at_end = outstanding_at_end;
    std::vector<double> late;
    double io_sum = 0.0;
    int64_t answered = 0;
    for (size_t i = 0; i < n; ++i) {
      const Slot& slot = slots[i];
      const int64_t recv_ns = slot.recv_ns.load(std::memory_order_acquire);
      late.push_back((slot.sent_ns - slot.due_ns) * 1e-6);
      ++r_->attempted;
      if (recv_ns == 0 || slot.outcome != Outcome::kOk) {
        ++stats.not_ok;
        ++r_->failed;
        continue;
      }
      const double latency_ms = (recv_ns - slot.due_ns) * 1e-6;
      stats.latencies_ms.push_back(latency_ms);
      stats.elapsed_ms.push_back(static_cast<double>(slot.elapsed_ms));
      io_sum += latency_ms - static_cast<double>(slot.elapsed_ms);
      ++answered;
      Tracer::Get().Record("server.request", slot.due_ns, recv_ns, step_span,
                           first_id + static_cast<int64_t>(i));
    }
    r_->Check(received.load() == static_cast<int64_t>(n), "a request got no response");
    if (answered > 0) {
      stats.mean_io_ms = io_sum / answered;
    }
    stats.p50_ms = Median(stats.latencies_ms);
    stats.p99_ms = Quantile(stats.latencies_ms, 0.99);
    stats.late_p50_ms = Median(late);
    stats.late_p99_ms = Quantile(late, 0.99);
    stats.late_max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
    const auto quarter = static_cast<long>(stats.latencies_ms.size() / 4);
    if (quarter > 0) {
      const auto& lat = stats.latencies_ms;
      stats.first_quarter_p50_ms =
          Median(std::vector<double>(lat.begin(), lat.begin() + quarter));
      stats.last_quarter_p50_ms =
          Median(std::vector<double>(lat.end() - quarter, lat.end()));
    }
    return stats;
  }

 private:
  void SendAll(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t k = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (k <= 0) {
        if (k < 0 && errno == EINTR) continue;
        Die("send", Status::IOError(std::strerror(errno)));
      }
      sent += static_cast<size_t>(k);
    }
  }

  /// Reads responses until every request of the step is answered (or the
  /// drain timeout passes) and checks each against the expected payload.
  void Receive(const std::vector<int>& stream, int64_t first_id, std::vector<Slot>* slots,
               std::atomic<int64_t>* received) {
    const int64_t n = static_cast<int64_t>(slots->size());
    const int64_t give_up = NowNanos() + kDrainTimeoutNs;
    char chunk[1 << 16];
    while (received->load(std::memory_order_relaxed) < n && NowNanos() < give_up) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t k = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (k <= 0) break;
      const int64_t now = NowNanos();
      buffer_.append(chunk, static_cast<size_t>(k));
      size_t begin = 0;
      for (size_t nl; (nl = buffer_.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        const std::string line = buffer_.substr(begin, nl - begin);
        const int64_t index = ParseField(line, "{\"id\":") - first_id;
        if (index < 0 || index >= n) {
          r_->Check(false, "response with an unknown id");
          continue;
        }
        Slot& slot = (*slots)[static_cast<size_t>(index)];
        if (slot.recv_ns.load(std::memory_order_relaxed) != 0) {
          r_->Check(false, "request answered more than once");
          continue;
        }
        slot.outcome = ParseOutcome(line);
        slot.elapsed_ms = ParseField(line, "\"elapsed_ms\":");
        if (slot.outcome == Outcome::kOk) {
          const size_t at = line.find(",\"result\":");
          const std::string payload =
              at == std::string::npos ? "" : line.substr(at + 10, line.size() - at - 11);
          const auto line_index = static_cast<size_t>(stream[static_cast<size_t>(index)]);
          if (payload != (*expected_)[line_index]) {
            r_->Check(false, "ok payload differs from the engine's answer for its line");
          }
        }
        slot.recv_ns.store(now, std::memory_order_release);
        received->fetch_add(1, std::memory_order_acq_rel);
      }
      buffer_.erase(0, begin);
    }
  }

  const std::vector<std::string>* statements_;
  const std::vector<std::string>* expected_;
  RunResult* r_;
  int fd_ = -1;
  int64_t next_id_ = 1;
  std::string buffer_;
};

}  // namespace

void MeasureServing(const Engine& engine, const Args& args, RunResult* r) {
  ServerOptions options;
  options.table_name = kTableName;
  options.num_workers = kServeWorkers;
  options.scheduler.top_k = kTopK;
  options.scheduler.default_deadline_ms = kDeadlineMs;
  options.scheduler.admission.max_in_system = 1 << 20;
  CapeServer server(&engine, options);
  {
    ScopedSpan span("server.start");
    Must(server.Start(), "CapeServer::Start");
  }

  uint64_t rng = args.seed * 0x2545f4914f6cdd1dULL + 1;
  std::vector<std::string> statements;
  AddStatements(engine, {"primary_type", "community", "year"}, kLowLines, "LOW", &rng,
                &statements);
  AddStatements(engine, {"primary_type", "community", "year"}, kHighLines, "HIGH", &rng,
                &statements);

  // Expected payloads: ExplanationsToJson of a 1-thread session answer for
  // every distinct line, through the same SQL front end the server uses.
  const Catalog catalog = MakeServingCatalog(engine, kTableName);
  std::vector<std::string> expected;
  {
    ScopedSpan check("bench.check");
    ExplainSession session = Must(engine.MakeExplainSession(), "MakeExplainSession");
    session.config().num_threads = 1;
    session.config().top_k = kTopK;
    for (const std::string& sql : statements) {
      const auto command =
          std::get<ExplainWhyCommand>(Must(ParseStatement(sql), "ParseStatement"));
      const UserQuestion question =
          Must(BuildQuestion(catalog, command), "BuildQuestion");
      const ExplainResult answer = Must(session.Explain(question), "session Explain");
      expected.push_back(ExplanationsToJson(answer.explanations, engine.schema()));
    }
  }

  Client client(&statements, &expected, r);
  Must(client.Connect(server.port()), "connect");

  // Untimed warm-up: every distinct line once, so pooled sessions hold
  // their aggregate tables before the timed steps.
  {
    std::vector<int> all(statements.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    const int64_t attempted = r->attempted;
    const int64_t failed = r->failed;
    client.Run(all, kNominalRps, "bench.warmup");
    r->attempted = attempted;
    r->failed = failed;
  }

  ScopedSpan measure("bench.serve");
  const std::vector<int> nominal_stream = DrawStream(statements.size(), kStepRequests, &rng);
  std::vector<StepStats> steps;
  const StepStats nominal = client.Run(nominal_stream, kNominalRps, "bench.nominal");
  const StepStats peak = client.Run(DrawStream(statements.size(), kStepRequests, &rng),
                                    kPeakRps, "bench.peak");
  steps.push_back(nominal);
  steps.push_back(peak);
  r->Check(!nominal.GeneratorBehind() && !peak.GeneratorBehind(),
           "invalid run: the load generator fell behind its schedule");

  // Ladder above the peak rate, stopping at the first step that misses the
  // limit.
  double max_rps = 0.0;
  for (const StepStats& s : steps) {
    if (!s.Passes()) break;
    max_rps = s.rate;
  }
  if (max_rps == kPeakRps) {
    const int64_t ladder_start = NowNanos();
    for (double rate = kPeakRps * kLadderGrowth;
         rate <= kLadderMaxRps && SecondsSince(ladder_start) < kLadderSeconds;
         rate *= kLadderGrowth) {
      const StepStats step = client.Run(
          DrawStream(statements.size(), kStepRequests, &rng), rate, "bench.ladder");
      steps.push_back(step);
      if (!step.Passes()) break;
      max_rps = rate;
    }
  }

  // Service time: one request in flight, so nothing queues.
  const StepStats closed = client.Run(
      std::vector<int>(nominal_stream.begin(),
                       nominal_stream.begin() + static_cast<long>(kClosedLoopRequests)),
      0.0, "bench.closed_loop");

  const RequestScheduler::Stats sched = server.scheduler().stats();
  server.Stop();

  {
    // The nominal stream through one ExplainSession at one thread, with the
    // SQL parse timed on its own.
    ScopedSpan replay("bench.session_replay");
    ExplainSession session = Must(engine.MakeExplainSession(), "MakeExplainSession");
    session.config().num_threads = 1;
    session.config().top_k = kTopK;
    for (const int line : nominal_stream) {
      const std::string& sql = statements[static_cast<size_t>(line)];
      int64_t start = NowNanos();
      Result<Statement> parsed = [&] {
        ScopedSpan span("sql.parse");
        return ParseStatement(sql);
      }();
      r->AddSample("sql.parse_us", "us", SecondsSince(start) * 1e6);
      const auto command =
          std::get<ExplainWhyCommand>(Must(std::move(parsed), "ParseStatement"));
      const UserQuestion question =
          Must(BuildQuestion(catalog, command), "BuildQuestion");
      start = NowNanos();
      Result<ExplainResult> answer = [&] {
        ScopedSpan span("explain.session");
        return session.Explain(question);
      }();
      r->AddSample("explain.session_ms", "ms", SecondsSince(start) * 1e3);
      Must(std::move(answer), "session Explain");
    }
    r->metrics["explain.session_agg_tables"] =
        static_cast<double>(session.num_cached_agg_tables());
  }

  r->metrics["explain.session_p50_ms"] = Median(r->Samples("explain.session_ms"));
  r->metrics["explain.session_p90_ms"] = Quantile(r->Samples("explain.session_ms"), 0.90);
  r->metrics["server.max_rps"] = max_rps;
  // elapsed_ms has millisecond resolution, so these are means, not medians.
  const auto mean_of_first = [](const std::vector<double>& v) {
    const size_t n = std::min(v.size(), kClosedLoopRequests);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += v[i];
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  const double service_ms = mean_of_first(closed.elapsed_ms);
  r->metrics["server.service_ms"] = service_ms;
  r->metrics["server.queue_wait_ms"] = mean_of_first(nominal.elapsed_ms) - service_ms;
  r->metrics["server.io_ms"] = nominal.mean_io_ms;
  r->metrics["server.peak_queued"] = static_cast<double>(sched.peak_queued);
  r->metrics["server.ok"] = static_cast<double>(sched.ok);
  r->metrics["server.not_ok"] =
      static_cast<double>(sched.degraded + sched.truncated + sched.shed +
                          sched.overloaded + sched.retry_after + sched.errors);
  r->metrics["client.late_ms_p99"] = std::max(nominal.late_p99_ms, peak.late_p99_ms);
  r->metrics["client.late_ms_max"] = std::max(nominal.late_max_ms, peak.late_max_ms);
  r->AddSample("closed_loop_ms", "ms", closed.p50_ms);

  std::string ladder = "[";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) ladder += ",";
    ladder += steps[i].Json();
  }
  r->extra_json["serve_steps"] = ladder + "]";
  r->extra_json["serve_limits"] =
      "{\"latency_limit_ms\":" + JsonNumber(kLatencyLimitMs) +
      ",\"max_late_p50_ms\":" + JsonNumber(kMaxLateP50Ms) +
      ",\"nominal_rps\":" + JsonNumber(kNominalRps) +
      ",\"peak_rps\":" + JsonNumber(kPeakRps) +
      ",\"distinct_lines\":" + std::to_string(statements.size()) + "}";
}

}  // namespace capebench
