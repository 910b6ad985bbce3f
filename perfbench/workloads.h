// The repository benchmark: three workloads run through the library's
// public API, one item at a time, by one closed-loop caller on a
// runner::SweepRunner with one thread.
//
//   design_sweep  one item = one seeded design point: cold characterization
//                 of the 6T and NV cells, then the Fig. 7/8/9 E_cyc and BET
//                 grid over the two.
//   montecarlo    one item = one mismatch sample (hold SNM, read SNM or store
//                 margin) at one of the four Vth sigmas of bench_montecarlo.
//   array_lint    one item = one generated array deck, parsed and linted
//                 (the default nvlint path).
//
// Everything a workload feeds the library is generated from the seed; the
// library sees only those inputs.  See README.md for why each workload
// exists and what each per-layer span measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lint/report.h"
#include "models/paper_params.h"
#include "sram/testbench.h"
#include "support/array_gen.h"

namespace perfbench {

// ---- statistics ----

double median(std::vector<double> values);

// The highest percentile that still has at least ten items beyond it, and
// the item time there.  With fewer than eleven items no such percentile
// exists and the maximum is reported as the 100th percentile.
struct TailPoint {
  double percentile = 100.0;
  double value = 0.0;
};
TailPoint tail_point(std::vector<double> values);

// FNV-1a over the bits of simulated outputs; two runs whose outputs agree
// bit for bit print the same digest.
class Digest {
 public:
  void add_bits(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// ---- generated inputs ----

// One design_sweep point.  Index 0 is nominal table1(), index 1 nominal
// table1_fast(); later indices alternate the two bases and draw the
// temperature, power-switch Vth and normal-mode V_CTRL within the ranges
// bench_ablation sweeps (Latin hypercube over groups of eight points).
struct DesignPoint {
  bool fast = false;  // table1_fast() base instead of table1()
  double temperature = 300.0;
  double power_switch_vth = 0.40;
  double vctrl_normal = 0.07;

  nvsram::models::PaperParams params() const;
};
DesignPoint design_point(std::uint64_t seed, std::size_t index);

// One array_lint deck.  Index 0 is the clean 64x64 array; every later
// group of eight decks holds a fixed mix of shapes and defects in a seeded
// order (and a seeded orientation of the one non-square shape).
struct DeckSpec {
  int rows = 0;
  int cols = 0;
  nvsram::testsupport::ArrayDefect defect =
      nvsram::testsupport::ArrayDefect::kNone;
};
DeckSpec deck_spec(std::uint64_t seed, std::size_t index);

// Findings and errors lint_netlist() must report for a generated deck.
struct LintCounts {
  std::size_t findings = 0;
  std::size_t errors = 0;
};
LintCounts expected_lint_counts(const DeckSpec& deck);

// The montecarlo item plan: blocks of 8 hold, 8 read and 8 store-margin
// samples, cycling over the four sigmas.
enum class SampleKind { kHold, kRead, kStore };
struct SamplePlan {
  std::size_t sigma_index = 0;
  SampleKind kind = SampleKind::kHold;
};
SamplePlan sample_plan(std::size_t index);
inline constexpr double kSigmas[4] = {0.01, 0.02, 0.03, 0.05};
// VariationSpec::seed of the engine at kSigmas[sigma_index].
unsigned sample_seed(std::uint64_t seed, std::size_t sigma_index);

// The schedules CellCharacterizer::characterize() runs for its op script
// and for its sleep-transition script.
void schedule_op_script(nvsram::sram::CellTestbench& tb);
void schedule_sleep_script(nvsram::sram::CellTestbench& tb);

// The static lint gate characterize() applies to a scheduled testbench
// (temporal, units, parameter, power and dataflow checks) on a cold cache.
nvsram::lint::LintReport gate_report(const nvsram::sram::CellTestbench& tb,
                                     const nvsram::models::PaperParams& pp);

// ---- running ----

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // runner CSVs and the trace file go here
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  std::size_t attempted = 0;  // items plus output checks
  std::size_t failed = 0;     // failed items plus failed checks
  std::map<std::string, Metric> metrics;  // end-to-end, untraced pass
  std::uint64_t digest = 0;
  std::size_t digest_items = 0;
  std::vector<std::string> notes;  // human-readable lines
  std::string trace_path;          // traced runs only
};

// Runs one workload for about opts.seconds (a traced run spends half of it
// untraced, for the end-to-end reference, and half traced).  Throws
// std::invalid_argument for an unknown workload name.
RunReport run_workload(const RunOptions& opts);

}  // namespace perfbench
