// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench prints the Table I parameter block, then the series of the
// figure it reproduces as aligned text tables, and writes a CSV next to the
// binary (./<name>.csv) for plotting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "models/paper_params.h"
#include "runner/sweep_runner.h"
#include "sram/characterize.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/units.h"

namespace nvsram::bench {

inline void print_header(const std::string& figure, const std::string& claim) {
  std::cout << "================================================================\n"
            << "Reproduction: " << figure << "\n"
            << "Paper claim:  " << claim << "\n"
            << "================================================================\n"
            << models::PaperParams::table1().describe() << "\n";
}

inline void print_footer(const std::string& csv_path) {
  std::cout << "\n[series written to " << csv_path << "]\n";
}

// Fixed-point ratio like "1.46x" (si_format would pick odd milli prefixes).
inline std::string ratio_fmt(double r, int digits = 2) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*fx", digits, r);
  return buf;
}

// Applies the NVSRAM_SWEEP_* environment overrides to `opts`.  A malformed
// or unknown override is a usage error: it prints one line naming the
// variable and exits with status 2 rather than silently degrading (or
// letting RunnerError escape main as an abort).
inline void apply_sweep_env(runner::RunnerOptions& opts,
                            const std::string& runner_name) {
  try {
    opts.apply_env(runner_name);
  } catch (const runner::RunnerError& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

// Standard runner configuration for a figure sweep: checkpoint next to the
// CSV, NVSRAM_SWEEP_* environment overrides honored — fault/kill drills,
// timeout, thread count, and NVSRAM_SWEEP_ISOLATION=process to run the
// points on supervised worker subprocesses with crash quarantine (see
// runner/sweep_runner.h and docs/ROBUSTNESS.md).
inline runner::RunnerOptions sweep_options(const std::string& runner_name,
                                           std::string csv_path,
                                           std::vector<std::string> columns) {
  runner::RunnerOptions opts;
  opts.csv_path = std::move(csv_path);
  opts.csv_columns = std::move(columns);
  apply_sweep_env(opts, runner_name);
  return opts;
}

// One-line sweep accounting printed after each runner finishes.
inline void print_sweep_summary(const runner::RunSummary& summary) {
  std::cout << summary.describe() << "\n";
}

// Recovery-ladder telemetry of one characterized cell, printed with the
// Table I block.  Zero is the healthy reading; a nonzero count means the
// characterization transients only converged through the gmin / source
// ramps, which is worth seeing in the bench log before trusting the
// figures built on top of those energies.
inline void print_characterization_telemetry(
    const std::string& label, const sram::CellEnergetics& cell) {
  std::cout << "[characterize " << label
            << "] solver recoveries: " << cell.solver_recoveries();
  if (cell.solver_recoveries() > 0) {
    std::cout << " (gmin " << cell.gmin_recoveries << ", source "
              << cell.source_recoveries << ")";
  }
  std::cout << "\n";
}

}  // namespace nvsram::bench
