// Benchmark entry point: runs one workload and writes its result as JSON.
//
//   perfbench --workload design_sweep|montecarlo|array_lint --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Human-readable lines go to stdout; the machine-readable result goes to
// DIR/<workload>.result.json (run.py turns it, and the trace file of a
// traced run, into the benchmark's final result line).  Exit status: 0 when
// every item and output check passed, 1 when one failed, 2 on usage errors.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::json_number;
using perfbench::json_string;

// NVSRAM_* variables (sweep threads, batching, isolation, fault drills)
// change how the library carries the work; the benchmark always measures
// the default serial path, so none may leak in.
std::vector<std::string> scrub_nvsram_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string entry = *e;
    if (entry.rfind("NVSRAM_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
  return names;
}

void write_result(const std::string& path, const perfbench::RunReport& r,
                  const std::vector<std::string>& scrubbed) {
  std::ofstream out(path, std::ios::trunc);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.digest));
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"digest\": \"" << digest << "\", \"digest_items\": "
      << r.digest_items << ", \"trace\": " << json_string(r.trace_path)
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << json_string(name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  out << "}, \"scrubbed_env\": [";
  for (std::size_t i = 0; i < scrubbed.size(); ++i) {
    out << (i ? ", " : "") << json_string(scrubbed[i]);
  }
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto scrubbed = scrub_nvsram_env();
  perfbench::RunOptions opts;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        opts.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (key == "--trace") {
        opts.trace = val == "1";
      } else if (key == "--out") {
        opts.out_dir = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (!have_workload || argc % 2 == 0) return usage("missing arguments");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  try {
    const auto report = perfbench::run_workload(opts);
    for (const auto& n : report.notes) std::cout << n << "\n";
    const std::string path = opts.out_dir + "/" + opts.workload +
                             ".result.json";
    write_result(path, report, scrubbed);
    return report.correct ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
