// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened around calls into the library's public functions (the
// library itself is not instrumented).  Each span keeps its name, start,
// end, parent and a few numeric arguments (counts such as Newton
// iterations).  Nothing is written until the run ends; write_chrome_json()
// then emits Chrome Trace Event Format ("X" complete events, timestamps in
// thread CPU time), which opens directly in Perfetto or chrome://tracing.
// A disabled tracer records nothing and reads no clock.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// CPU time of the calling thread, in seconds.  Every duration the
// benchmark reports is read from this clock: for its single-threaded,
// CPU-bound loop it equals wall time on an idle host, and it leaves out the
// time the thread sits descheduled while other work shares the host.
double cpu_s();

// Monotonic wall time in seconds; bounds how long a run lasts.
double wall_s();

// JSON text of a string (quotes and backslashes escaped, control
// characters blanked) and of a number (17 significant digits).
std::string json_string(const std::string& s);
std::string json_number(double v);

struct SpanRecord {
  std::string name;
  double t0 = 0.0;  // seconds, cpu_s() clock
  double t1 = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // RAII span: opened on construction, closed on destruction (also when
  // the traced call throws).  The parent is the innermost open span.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    // Attaches a numeric argument; no-op on a disabled tracer.
    void arg(const char* key, double value);

   private:
    Tracer* tracer_;  // nullptr when disabled
    int index_ = -1;
  };

  // Writes every closed span as Chrome Trace Event Format JSON, with the
  // workload name and `facts` (run-level numbers) under "otherData".
  // Throws std::runtime_error on I/O failure.
  void write_chrome_json(const std::string& path, const std::string& workload,
                         const std::map<std::string, double>& facts) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
