#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (!tracer_) return;
  SpanRecord rec;
  rec.name = name;
  rec.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->open_.push_back(index_);
  rec.t0 = cpu_s();
  tracer_->spans_.push_back(std::move(rec));
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].t1 = cpu_s();
  tracer_->open_.pop_back();
}

void Tracer::Span::arg(const char* key, double value) {
  if (!tracer_) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].args.emplace_back(key,
                                                                      value);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Tracer::write_chrome_json(
    const std::string& path, const std::string& workload,
    const std::map<std::string, double>& facts) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
      << json_string(workload);
  for (const auto& [key, value] : facts) {
    out << "," << json_string(key) << ":" << json_number(value);
  }
  out << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(s.t0 * 1e6)
        << ",\"dur\":" << json_number((s.t1 - s.t0) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    for (const auto& [key, value] : s.args) {
      out << "," << json_string(key) << ":" << json_number(value);
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("trace: write failed for " + path);
}

}  // namespace perfbench
