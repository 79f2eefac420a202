#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace capebench {

namespace {

thread_local std::vector<int64_t> tls_open_spans;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.parent = tls_open_spans.empty() ? -1 : tls_open_spans.back();
  span.start_ns = NowNanos();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  tls_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t end_ns = NowNanos();
  if (!tls_open_spans.empty() && tls_open_spans.back() == id) tls_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

void Tracer::Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t request_id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{name, start_ns, end_ns, parent, request_id});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    // Children may overlap (concurrent serve requests), so subtract the
    // union of their intervals clipped to the parent, not their sum.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += std::max<int64_t>(0, span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

cape::Status Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return cape::Status::IOError("cannot open " + path);
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id << "}";
  }
  out << "]}\n";
  if (!out.good()) return cape::Status::IOError("write to " + path + " failed");
  return cape::Status::OK();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& samples) { return Quantile(samples, 0.5); }

void Die(const std::string& what, const cape::Status& status) {
  std::fprintf(stderr, "capebench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace capebench
