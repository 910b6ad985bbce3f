#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/energy_model.h"
#include "lint/dataflow/check.h"
#include "lint/linter.h"
#include "lint/power/check.h"
#include "lint/temporal/protocol.h"
#include "lint/temporal/units_check.h"
#include "runner/sweep_runner.h"
#include "spice/netlist_parser.h"
#include "spice/structural_analysis.h"
#include "sram/characterize.h"
#include "sram/characterize_cache.h"
#include "sram/montecarlo.h"
#include "trace.h"
#include "util/stats.h"

namespace perfbench {

namespace core = nvsram::core;
namespace lint = nvsram::lint;
namespace models = nvsram::models;
namespace runner = nvsram::runner;
namespace spice = nvsram::spice;
namespace sram = nvsram::sram;
using nvsram::testsupport::ArrayDefect;
using Span = Tracer::Span;

// ---------------------------------------------------------------- helpers

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailPoint tail_point(std::vector<double> values) {
  TailPoint out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    out.value = values.back();
    return out;
  }
  // Item k (0-based, ascending) is the 100*k/(n-1) percentile and has
  // n-1-k items beyond it; the highest k with ten beyond is n-11.
  const std::size_t k = n - 11;
  out.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n - 1);
  out.value = values[k];
  return out;
}

void Digest::add_bits(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) { add_bits(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  add_bits(s.size());
}

namespace {

// Counter-based generator: the draws of one item depend only on the seed,
// a stream tag and the item index, never on how many items ran before.
std::mt19937_64 item_rng(std::uint64_t seed, std::uint64_t tag,
                         std::uint64_t index) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(tag),
                    static_cast<std::uint32_t>(index),
                    static_cast<std::uint32_t>(index >> 32)};
  return std::mt19937_64(seq);
}

// Uniform in [lo, hi) from 53 random bits (portable, unlike
// std::uniform_real_distribution).
double uniform(std::mt19937_64& g, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(g() >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kDesignStream = 1;
constexpr std::uint64_t kDeckStream = 2;
constexpr std::uint64_t kSampleStream = 3;

}  // namespace

// ----------------------------------------------------------------- inputs

models::PaperParams DesignPoint::params() const {
  auto pp = fast ? models::PaperParams::table1_fast()
                 : models::PaperParams::table1();
  pp.temperature = temperature;
  pp.power_switch_vth = power_switch_vth;
  pp.vctrl_normal = vctrl_normal;
  return pp;
}

DesignPoint design_point(std::uint64_t seed, std::size_t index) {
  DesignPoint dp;
  dp.fast = index % 2 == 1;
  const auto base = dp.params();  // nominal values of the chosen base
  dp.temperature = base.temperature;
  dp.power_switch_vth = base.power_switch_vth;
  dp.vctrl_normal = base.vctrl_normal;
  if (index < 2) return dp;
  // Latin hypercube per group of eight points: the four points of each
  // base take every quarter of every parameter range exactly once, so each
  // group covers the ranges evenly (and costs about the same) whatever the
  // seed.
  const std::size_t group = (index - 2) / 8;
  const std::size_t slot = (index - 2) % 8;
  auto g = item_rng(seed, kDesignStream, group);
  std::size_t strata[2][3][4];
  for (auto& per_base : strata) {
    for (auto& perm : per_base) {
      std::iota(perm, perm + 4, std::size_t{0});
      for (std::size_t k = 3; k > 0; --k) std::swap(perm[k], perm[g() % (k + 1)]);
    }
  }
  double jitter[8][3];
  for (auto& per_slot : jitter) {
    for (double& j : per_slot) j = uniform(g, 0.0, 1.0);
  }
  auto draw = [&](int param, double lo, double hi) {
    const double stratum = static_cast<double>(strata[slot % 2][param][slot / 2]);
    return lo + (hi - lo) * (stratum + jitter[slot][param]) / 4.0;
  };
  // The ranges bench_ablation characterizes one parameter at a time.
  dp.temperature = draw(0, 273.0, 358.0);
  dp.power_switch_vth = draw(1, 0.25, 0.45);
  dp.vctrl_normal = draw(2, 0.0, 0.12);
  return dp;
}

DeckSpec deck_spec(std::uint64_t seed, std::size_t index) {
  if (index == 0) return {64, 64, ArrayDefect::kNone};
  // Every group of eight holds the same decks, so the per-group cost does
  // not depend on the seed: three clean shapes, two float-node decks (one
  // with thousands of findings), one unused port, two bad values.
  static constexpr DeckSpec kGroup[8] = {
      {16, 16, ArrayDefect::kNone},      {24, 24, ArrayDefect::kNone},
      {8, 32, ArrayDefect::kNone},       {32, 32, ArrayDefect::kFloatNode},
      {16, 16, ArrayDefect::kFloatNode}, {16, 16, ArrayDefect::kUnusedPort},
      {24, 24, ArrayDefect::kBadValue},  {16, 16, ArrayDefect::kBadValue},
  };
  const std::size_t group = (index - 1) / 8;
  const std::size_t slot = (index - 1) % 8;
  auto g = item_rng(seed, kDeckStream, group);
  std::size_t order[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t k = 7; k > 0; --k) {
    std::swap(order[k], order[g() % (k + 1)]);
  }
  DeckSpec deck = kGroup[order[slot]];
  if (deck.rows != deck.cols && (g() & 1)) std::swap(deck.rows, deck.cols);
  return deck;
}

LintCounts expected_lint_counts(const DeckSpec& deck) {
  const std::size_t cells = static_cast<std::size_t>(deck.rows) *
                            static_cast<std::size_t>(deck.cols);
  switch (deck.defect) {
    case ArrayDefect::kNone:
      return {};
    case ArrayDefect::kFloatNode: {
      // float-node (warning) and no-dc-path (error) once per cell, plus
      // structural-singular capped at 8 undetermined unknowns and 8
      // unpivotable equations (every deck here has at least 8 cells).
      const std::size_t singular = 2 * std::min<std::size_t>(cells, 8);
      return {2 * cells + singular, cells + singular};
    }
    case ArrayDefect::kUnusedPort:
      return {1, 0};  // subckt-unused-port, once per definition
    case ArrayDefect::kBadValue:
      return {cells, cells};  // nonphysical-value, once per cell
  }
  return {};
}

SamplePlan sample_plan(std::size_t index) {
  const std::size_t block = index / 24;
  const std::size_t slot = index % 24;
  return {block % 4, slot < 8    ? SampleKind::kHold
                     : slot < 16 ? SampleKind::kRead
                                 : SampleKind::kStore};
}

unsigned sample_seed(std::uint64_t seed, std::size_t sigma_index) {
  return static_cast<unsigned>(item_rng(seed, kSampleStream, sigma_index)());
}

void schedule_op_script(sram::CellTestbench& tb) {
  tb.op_write(true);
  tb.op_write(false);
  tb.op_write(true);
  tb.op_read();
  tb.op_read();
  tb.op_idle(2e-9);
  if (tb.kind() == sram::CellKind::kNvSram) {
    tb.op_store();
    tb.op_shutdown(3e-6);
    tb.op_restore();
    tb.op_idle(2e-9);
  }
}

void schedule_sleep_script(sram::CellTestbench& tb) {
  tb.op_write(true);
  tb.op_idle(2e-9);
  tb.op_sleep(60e-9);
  tb.op_idle(2e-9);
}

lint::LintReport gate_report(const sram::CellTestbench& tb,
                             const models::PaperParams& pp) {
  const auto tl = tb.export_timeline();
  lint::LintReport report;
  auto add = [&report](std::vector<lint::Diagnostic> ds) {
    for (auto& d : ds) report.add(std::move(d));
  };
  add(lint::temporal::check_timeline(
      tl, lint::temporal::TemporalOptions::from_paper(pp)));
  add(lint::temporal::check_timeline_units(tl));
  add(lint::temporal::check_paper_params(pp));
  add(lint::power::check_power(tb.circuit(), tl, nullptr, {}));
  add(lint::dataflow::check_dataflow(
      tl, lint::dataflow::DataflowOptions::from_paper(pp), &tb.circuit(),
      nullptr));
  return report;
}

// -------------------------------------------------------------- workloads

namespace {

struct Checks {
  std::size_t run = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) failures.push_back(what);
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// One workload: its item inputs, the real calls of an item (timed), the
// digest and checks of its outputs (untimed), and the layer-by-layer replay
// of an item that only traced passes run.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<std::string> columns() const = 0;
  // Items per SweepRunner::run() call, starting at item `first`.
  virtual std::size_t block_len(std::size_t first) const = 0;
  // Items every run completes; the digest covers exactly these.
  virtual std::size_t digest_items() const = 0;
  // Resets per-pass state so a second pass sees the same inputs cold.
  virtual void restart() {}
  // Generates the inputs of items [first, first + count) (untimed).
  virtual void prepare(std::size_t /*first*/, std::size_t /*count*/) {}
  virtual runner::Rows run_item(std::size_t i, Tracer& tr) = 0;
  virtual void absorb(std::size_t i, Digest* digest, Checks& checks) = 0;
  virtual void replay(std::size_t i, Tracer& tr, Checks& checks) = 0;
  // Checks over the whole pass.
  virtual void finish_pass(Checks& /*checks*/) {}
};

// ---- design_sweep ----

const std::vector<int> kNrwGrid{1, 3, 10, 30, 100, 300, 1000, 3000, 10000};
const std::vector<int> kRowsGrid{32, 256, 2048};
const std::vector<double> kTsdGrid{0.0, 10e-6, 100e-6, 1e-3, 10e-3};

// Fig. 7/8/9 grid: E_cyc of every architecture and the BET of NVPG and NOF
// at every (n_RW, N, t_SD); nullopt BETs become NaN.
std::vector<double> energy_grid(const core::EnergyModel& model) {
  using core::Architecture;
  std::vector<double> out;
  for (int n_rw : kNrwGrid) {
    for (int rows : kRowsGrid) {
      core::BenchmarkParams p;
      p.n_rw = n_rw;
      p.t_sl = 100e-9;
      p.rows = rows;
      for (double t_sd : kTsdGrid) {
        p.t_sd = t_sd;
        for (auto a : {Architecture::kOSR, Architecture::kNVPG,
                       Architecture::kNOF}) {
          out.push_back(model.e_cyc(a, p));
        }
      }
      for (auto a : {Architecture::kNVPG, Architecture::kNOF}) {
        const auto bet = model.break_even_time(a, p);
        out.push_back(bet ? *bet : std::numeric_limits<double>::quiet_NaN());
      }
    }
  }
  return out;
}

// What the replay of one characterization measured, for comparison with
// the real call.
struct ReplayOut {
  double e_write = 0.0;
  double e_read = 0.0;
  double p_shutdown = 0.0;
};

double traced_static_power(Tracer& tr, sram::CellTestbench& tb,
                           sram::CellTestbench::StaticMode mode, bool data) {
  Span s(tr, "spice.dc");
  try {
    const double p = tb.static_power(mode, data);
    s.arg("newton_iters", tb.last_dc_diagnostics().iterations);
    return p;
  } catch (...) {
    s.arg("failed", 1);
    throw;
  }
}

// CellCharacterizer::characterize() re-enacted step by step through the
// public testbench and lint functions, one span per layer call.
ReplayOut replay_characterize(Tracer& tr, const models::PaperParams& pp,
                              sram::CellKind kind) {
  using SM = sram::CellTestbench::StaticMode;
  ReplayOut out;
  // Constructor plus schedule, as one testbench-build span.
  auto build = [&tr, kind, &pp](sram::TestbenchOptions opts,
                                void (*schedule)(sram::CellTestbench&)) {
    Span s(tr, "sram.testbench.build");
    auto tb = std::make_unique<sram::CellTestbench>(kind, pp, opts);
    if (schedule) schedule(*tb);
    return tb;
  };
  auto gate = [&tr, &pp](const sram::CellTestbench& tb) {
    Span s(tr, "lint.gate");
    auto report = gate_report(tb, pp);
    s.arg("findings", static_cast<double>(report.size()));
    if (report.has_errors()) throw lint::LintError(std::move(report));
  };
  auto tran = [&tr](sram::CellTestbench& tb) {
    Span s(tr, "spice.tran");
    auto res = tb.run();
    s.arg("steps", static_cast<double>(res.stats.accepted_steps));
    s.arg("rejected_steps", static_cast<double>(res.stats.rejected_steps));
    s.arg("newton_iters",
          static_cast<double>(res.stats.total_newton_iterations));
    s.arg("recoveries", static_cast<double>(res.stats.recoveries()));
    return res;
  };
  {
    Span phase(tr, "characterize: op script");
    auto tb = build({}, schedule_op_script);
    gate(*tb);
    auto res = tran(*tb);
    out.e_write = res.energy(res.phase("write1", 1));
    out.e_read = res.energy(res.phase("read", 1));
    // The rest of characterize()'s post-processing, so the phase span
    // carries its cost; the values themselves are not needed.
    if (kind == sram::CellKind::kNvSram) {
      res.energy(res.phase("store_h").t0, res.phase("store_l").t1);
      res.energy(res.phase("restore"));
      res.wave.value_at("V(VVDD)", res.phase("shutdown").t1 - 1e-9);
      res.wave.value_at("V(Q)", tb->now() - 0.5e-9);
      res.wave.value_at("V(QB)", tb->now() - 0.5e-9);
    }
  }
  {
    Span phase(tr, "characterize: sleep");
    auto tb = build({}, schedule_sleep_script);
    gate(*tb);
    auto res = tran(*tb);
    res.energy(res.phase("sleep"));
    auto tbd = build({.ideal_bitlines = true}, nullptr);
    traced_static_power(tr, *tbd, SM::kSleep, true);
  }
  {
    Span phase(tr, "characterize: static");
    auto tbd = build({.ideal_bitlines = true}, nullptr);
    for (auto [mode, data] :
         {std::pair{SM::kNormal, true}, std::pair{SM::kNormal, false},
          std::pair{SM::kSleep, true}, std::pair{SM::kSleep, false},
          std::pair{SM::kShutdown, true}}) {
      out.p_shutdown = traced_static_power(tr, *tbd, mode, data);
    }
  }
  return out;
}

class DesignSweep final : public Workload {
 public:
  // Starts from an empty characterize cache: every point must miss it.
  explicit DesignSweep(std::uint64_t seed) : seed_(seed) {
    sram::characterize_cache_clear();
  }

  std::vector<std::string> columns() const override {
    return {"index",        "fast",       "temperature",
            "ps_vth",       "vctrl",      "nv_e_store",
            "nv_p_shutdown", "bet_nvpg"};
  }
  std::size_t block_len(std::size_t) const override { return 2; }
  std::size_t digest_items() const override { return 8; }

  void restart() override { sram::characterize_cache_clear(); }

  runner::Rows run_item(std::size_t i, Tracer& tr) override {
    const DesignPoint dp = design_point(seed_, i);
    const auto pp = dp.params();
    misses_ = 0;
    c6_ = characterize(tr, pp, sram::CellKind::k6T);
    cnv_ = characterize(tr, pp, sram::CellKind::kNvSram);
    {
      Span s(tr, "core.energy_model");
      grid_ = energy_grid(core::EnergyModel(c6_, cnv_));
      s.arg("evals", static_cast<double>(grid_.size()));
    }
    // grid_[3 * kTsdGrid.size() + 0]: BET of NVPG at n_RW = 1, N = 32.
    return {{static_cast<double>(i), dp.fast ? 1.0 : 0.0, dp.temperature,
             dp.power_switch_vth, dp.vctrl_normal, cnv_.e_store,
             cnv_.p_static_shutdown, grid_[3 * kTsdGrid.size()]}};
  }

  void absorb(std::size_t i, Digest* digest, Checks& checks) override {
    const std::string at = "design point " + std::to_string(i);
    checks.expect(cnv_.store_verified && cnv_.restore_verified,
                  at + ": NV store/restore not verified");
    checks.expect(misses_ == 2, at + ": expected 2 characterize cache misses");
    if (i == 0) nominal_ = std::pair{c6_, cnv_};
    if (!digest) return;
    for (const auto* c : {&c6_, &cnv_}) {
      for (double v : {c->t_clk, c->e_read, c->e_write, c->p_static_normal,
                       c->p_static_sleep, c->p_static_shutdown, c->e_store,
                       c->t_store, c->e_restore, c->t_restore,
                       c->e_sleep_transition}) {
        digest->add(v);
      }
    }
    for (double v : grid_) digest->add(v);
  }

  void replay(std::size_t i, Tracer& tr, Checks& checks) override {
    const auto pp = design_point(seed_, i).params();
    const auto r6 = replay_characterize(tr, pp, sram::CellKind::k6T);
    const auto rn = replay_characterize(tr, pp, sram::CellKind::kNvSram);
    checks.expect(same_bits(r6.e_write, c6_.e_write) &&
                      same_bits(r6.e_read, c6_.e_read) &&
                      same_bits(r6.p_shutdown, c6_.p_static_shutdown) &&
                      same_bits(rn.e_write, cnv_.e_write) &&
                      same_bits(rn.e_read, cnv_.e_read) &&
                      same_bits(rn.p_shutdown, cnv_.p_static_shutdown),
                  "design point " + std::to_string(i) +
                      ": traced replay differs from characterize()");
  }

  // Nominal table1 energetics against the 6t.* / nv.* golden keys, at the
  // golden tier's tolerance.  The file is only read.
  void finish_pass(Checks& checks) override {
    if (!nominal_) {
      checks.expect(false, "nominal table1 point did not complete");
      return;
    }
    const std::string path =
        std::string(PERFBENCH_REPO_ROOT) + "/tests/golden/paper_golden.csv";
    std::ifstream in(path);
    checks.expect(static_cast<bool>(in), "cannot read " + path);
    const auto& [c6, cn] = *nominal_;
    const std::map<std::string, double> computed{
        {"6t.t_clk", c6.t_clk},
        {"6t.e_read", c6.e_read},
        {"6t.e_write", c6.e_write},
        {"6t.p_static_normal", c6.p_static_normal},
        {"6t.p_static_sleep", c6.p_static_sleep},
        {"6t.p_static_shutdown", c6.p_static_shutdown},
        {"nv.e_read", cn.e_read},
        {"nv.e_write", cn.e_write},
        {"nv.e_store", cn.e_store},
        {"nv.t_store", cn.t_store},
        {"nv.e_restore", cn.e_restore},
        {"nv.t_restore", cn.t_restore},
        {"nv.e_sleep_transition", cn.e_sleep_transition},
        {"nv.p_static_normal", cn.p_static_normal},
        {"nv.p_static_sleep", cn.p_static_sleep},
        {"nv.p_static_shutdown", cn.p_static_shutdown},
    };
    std::size_t matched = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("6t.", 0) != 0 && line.rfind("nv.", 0) != 0) continue;
      const auto comma = line.find(',');
      const std::string key = line.substr(0, comma);
      const double want = std::stod(line.substr(comma + 1));
      const auto it = computed.find(key);
      if (it == computed.end()) {
        checks.expect(false, "golden key " + key + " has no computed value");
        continue;
      }
      const double tol =
          1e-3 * std::max(std::fabs(want), std::fabs(it->second));
      checks.expect(std::fabs(it->second - want) <= tol,
                    "golden " + key + ": got " + json_number(it->second) +
                        ", want " + json_number(want));
      ++matched;
    }
    checks.expect(matched == computed.size(),
                  "golden file lacks some 6t.*/nv.* keys");
  }

 private:
  sram::CellEnergetics characterize(Tracer& tr, const models::PaperParams& pp,
                                    sram::CellKind kind) {
    const std::size_t before = sram::characterize_cache_stats().misses;
    Span s(tr, "sram.characterize");
    auto e = sram::characterize_cached(pp, kind);
    const std::size_t missed = sram::characterize_cache_stats().misses - before;
    s.arg("cache_misses", static_cast<double>(missed));
    misses_ += missed;
    return e;
  }

  std::uint64_t seed_;
  sram::CellEnergetics c6_, cnv_;
  std::vector<double> grid_;
  std::size_t misses_ = 0;
  std::optional<std::pair<sram::CellEnergetics, sram::CellEnergetics>>
      nominal_;
};

// ---- montecarlo ----

class MonteCarloSamples final : public Workload {
 public:
  explicit MonteCarloSamples(std::uint64_t seed) : seed_(seed) {
    for (std::size_t k = 0; k < 4; ++k) {
      engines_[k] = std::make_unique<sram::MonteCarlo>(pp_, spec(k));
    }
  }

  std::vector<std::string> columns() const override {
    return {"index", "vth_sigma", "kind", "value"};
  }
  std::size_t block_len(std::size_t) const override { return 24; }
  // The first block at each sigma; also the subset the batch check covers.
  std::size_t digest_items() const override { return 96; }

  // Fresh engines for the traced pass, plus the lockstep engines its
  // replay draws from.
  void restart() override {
    for (std::size_t k = 0; k < 4; ++k) {
      engines_[k] = std::make_unique<sram::MonteCarlo>(pp_, spec(k));
      replay_engines_[k] = std::make_unique<sram::MonteCarlo>(pp_, spec(k));
      for (auto& acc : first_block_[k]) acc = {};
    }
  }

  runner::Rows run_item(std::size_t i, Tracer&) override {
    const SamplePlan plan = sample_plan(i);
    sram::MonteCarlo& mc = *engines_[plan.sigma_index];
    switch (plan.kind) {
      case SampleKind::kHold: last_ = mc.hold_snm(1); break;
      case SampleKind::kRead: last_ = mc.read_snm(1); break;
      case SampleKind::kStore: last_ = mc.store_margin(1); break;
    }
    // A store sample without a value is a failed DC solve, not a yield
    // failure.
    if (last_.stats.count() != 1) {
      throw std::runtime_error("montecarlo sample " + std::to_string(i) +
                               ": DC solve failed");
    }
    return {{static_cast<double>(i), kSigmas[plan.sigma_index],
             static_cast<double>(plan.kind), last_.stats.mean()}};
  }

  void absorb(std::size_t i, Digest* digest, Checks&) override {
    if (!digest) return;
    digest->add(last_.stats.mean());
    const SamplePlan plan = sample_plan(i);
    Accum& acc = first_block_[plan.sigma_index][static_cast<int>(plan.kind)];
    acc.stats.add(last_.stats.mean());
    acc.failures += last_.failures;
    acc.samples += last_.samples;
  }

  void replay(std::size_t i, Tracer& tr, Checks& checks) override {
    const SamplePlan plan = sample_plan(i);
    sram::MonteCarlo& mc = *replay_engines_[plan.sigma_index];
    double value = 0.0;
    if (plan.kind == SampleKind::kStore) {
      value = replay_store(tr, mc);
    } else {
      sram::SnmOptions a, b;
      a.access_on = b.access_on = plan.kind == SampleKind::kRead;
      a.fet_vary = traced(tr, mc.draw_fet_vary());
      b.fet_vary = traced(tr, mc.draw_fet_vary());
      auto vtc = [&tr, this](const sram::SnmOptions& o) {
        Span s(tr, "sram.snm.vtc");
        return sram::inverter_vtc(pp_, sram::CellKind::kNvSram, o);
      };
      const auto vtc_a = vtc(a);
      const auto vtc_b = vtc(b);
      Span s(tr, "sram.snm.square");
      value = sram::compute_snm(vtc_a, vtc_b).snm;
    }
    checks.expect(same_bits(value, last_.stats.mean()),
                  "montecarlo sample " + std::to_string(i) +
                      ": traced replay differs from the real sample");
  }

  // The per-sample loop must reproduce the batch calls bit for bit.
  void finish_pass(Checks& checks) override {
    for (std::size_t k = 0; k < 4; ++k) {
      sram::MonteCarlo batch(pp_, spec(k));
      const sram::MonteCarloSummary s[3] = {
          batch.hold_snm(8), batch.read_snm(8), batch.store_margin(8)};
      for (int kind = 0; kind < 3; ++kind) {
        const Accum& acc = first_block_[k][kind];
        const auto& b = s[kind].stats;
        checks.expect(
            acc.stats.count() == b.count() &&
                same_bits(acc.stats.mean(), b.mean()) &&
                same_bits(acc.stats.variance(), b.variance()) &&
                same_bits(acc.stats.min(), b.min()) &&
                same_bits(acc.stats.max(), b.max()) &&
                acc.failures == s[kind].failures &&
                acc.samples == s[kind].samples,
            "montecarlo sigma " + std::to_string(kSigmas[k]) + " kind " +
                std::to_string(kind) +
                ": per-sample statistics differ from the batch call");
      }
    }
  }

 private:
  struct Accum {
    nvsram::util::RunningStats stats;
    int failures = 0;
    int samples = 0;
  };

  sram::VariationSpec spec(std::size_t k) const {
    sram::VariationSpec s;
    s.vth_sigma = kSigmas[k];
    s.seed = sample_seed(seed_, k);
    return s;
  }

  // Wraps a mismatch functor so each per-device draw is a span (nested in
  // the VTC or testbench build that invokes it).
  template <typename Fn>
  static Fn traced(Tracer& tr, Fn inner) {
    return [&tr, inner = std::move(inner)](const std::string& name,
                                           auto& params) {
      Span s(tr, "sram.montecarlo.draw");
      inner(name, params);
    };
  }

  double replay_store(Tracer& tr, sram::MonteCarlo& mc) {
    sram::TestbenchOptions opts;
    opts.ideal_bitlines = true;
    opts.fet_vary = traced(tr, mc.draw_fet_vary());
    opts.mtj_vary = traced(tr, mc.draw_mtj_vary());
    std::optional<sram::CellTestbench> tb;
    {
      Span s(tr, "sram.testbench.build");
      tb.emplace(sram::CellKind::kNvSram, pp_, opts);
    }
    auto solve = [&tr, &tb](const sram::CellTestbench::BiasSet& bias,
                            models::MtjState q, models::MtjState qb) {
      Span s(tr, "spice.dc");
      auto sol = tb->solve_dc(bias, true, q, qb);
      s.arg("newton_iters", tb->last_dc_diagnostics().iterations);
      if (!sol) s.arg("failed", 1);
      return sol;
    };
    using models::MtjState;
    auto sol_h = solve(tb->bias_store_h(), MtjState::kParallel,
                       MtjState::kAntiparallel);
    if (!sol_h) return std::numeric_limits<double>::quiet_NaN();
    const double ih = std::fabs(tb->mtj_q()->current(sol_h->view()));
    auto sol_l = solve(tb->bias_store_l(), MtjState::kAntiparallel,
                       MtjState::kAntiparallel);
    if (!sol_l) return std::numeric_limits<double>::quiet_NaN();
    const double il = tb->mtj_qb()->current(sol_l->view());
    return std::min(ih / tb->mtj_q()->model().params().critical_current(),
                    il / tb->mtj_qb()->model().params().critical_current());
  }

  std::uint64_t seed_;
  models::PaperParams pp_ = models::PaperParams::table1();
  std::unique_ptr<sram::MonteCarlo> engines_[4];
  std::unique_ptr<sram::MonteCarlo> replay_engines_[4];
  Accum first_block_[4][3];
  sram::MonteCarloSummary last_;
};

// ---- array_lint ----

class ArrayLint final : public Workload {
 public:
  explicit ArrayLint(std::uint64_t seed) : seed_(seed) {}

  std::vector<std::string> columns() const override {
    return {"index", "rows", "cols", "defect", "findings", "errors"};
  }
  std::size_t block_len(std::size_t first) const override {
    return first == 0 ? 1 : 8;
  }
  std::size_t digest_items() const override { return 9; }

  void prepare(std::size_t first, std::size_t count) override {
    decks_.clear();
    for (std::size_t i = first; i < first + count; ++i) {
      const DeckSpec d = deck_spec(seed_, i);
      decks_.emplace(
          i, std::pair{d, nvsram::testsupport::make_nvsram_array_netlist(
                              d.rows, d.cols, d.defect)});
    }
  }

  runner::Rows run_item(std::size_t i, Tracer& tr) override {
    const auto& [deck, text] = decks_.at(i);
    {
      Span s(tr, "spice.parse");
      net_ = parser_.parse(text);
      s.arg("devices", static_cast<double>(net_->circuit().devices().size()));
    }
    Span s(tr, "lint");
    report_ = lint::lint_netlist(*net_);
    s.arg("findings", static_cast<double>(report_.size()));
    s.arg("errors", static_cast<double>(report_.count(lint::Severity::kError)));
    return {{static_cast<double>(i), static_cast<double>(deck.rows),
             static_cast<double>(deck.cols),
             static_cast<double>(deck.defect),
             static_cast<double>(report_.size()),
             static_cast<double>(report_.count(lint::Severity::kError))}};
  }

  void absorb(std::size_t i, Digest* digest, Checks& checks) override {
    const DeckSpec& deck = decks_.at(i).first;
    const LintCounts want = expected_lint_counts(deck);
    const std::size_t errors = report_.count(lint::Severity::kError);
    checks.expect(report_.size() == want.findings && errors == want.errors,
                  "deck " + std::to_string(i) + " (" +
                      std::to_string(deck.rows) + "x" +
                      std::to_string(deck.cols) + ", defect " +
                      std::to_string(static_cast<int>(deck.defect)) + "): " +
                      std::to_string(report_.size()) + " findings / " +
                      std::to_string(errors) + " errors, want " +
                      std::to_string(want.findings) + " / " +
                      std::to_string(want.errors));
    if (!digest) return;
    for (const auto& d : report_.diagnostics()) {
      digest->add(d.rule);
      digest->add_bits(static_cast<std::uint64_t>(d.severity));
      digest->add(d.device);
      digest->add(d.node);
      digest->add_bits(static_cast<std::uint64_t>(d.line));
      digest->add(d.instance_path);
    }
  }

  void replay(std::size_t, Tracer& tr, Checks&) override {
    {
      Span s(tr, "lint.structural");
      lint::lint_netlist_passes(*net_, {},
                                {.cards = false,
                                 .probes = false,
                                 .temporal = false,
                                 .parse = false});
    }
    {
      Span s(tr, "lint.other");
      lint::lint_netlist_passes(*net_, {}, {.structural = false});
    }
    {
      Span s(tr, "spice.structure");
      const auto rep = spice::analyze_structure(net_->circuit());
      s.arg("unknowns", static_cast<double>(rep.unknown_count));
    }
    if (!report_.empty()) {
      Span s(tr, "lint.format");
      s.arg("bytes", static_cast<double>(report_.format().size()));
    }
    Span s(tr, "lint.hier");
    lint::lint_netlist_hier(*net_);
  }

 private:
  std::uint64_t seed_;
  spice::NetlistParser parser_;
  std::map<std::size_t, std::pair<DeckSpec, std::string>> decks_;
  std::unique_ptr<spice::ParsedNetlist> net_;
  lint::LintReport report_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "design_sweep") return std::make_unique<DesignSweep>(seed);
  if (name == "montecarlo") return std::make_unique<MonteCarloSamples>(seed);
  if (name == "array_lint") return std::make_unique<ArrayLint>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ------------------------------------------------------------------- loop

struct PassStats {
  std::size_t items = 0;
  std::size_t failed = 0;
  std::vector<double> item_s;  // CPU time of each completed item
  double cpu = 0.0;            // CPU time of the whole loop
  double wall = 0.0;
  Digest digest;
  std::vector<std::string> errors;  // one per failed item
};

// Runs items block by block through the runner until `seconds` have passed
// and at least the digest items are done.  With replay on (traced pass),
// each item is followed by its layer-by-layer replay.  `setup_sample`, when
// given, runs before every block; its CPU time is left out of the pass.
PassStats run_pass(Workload& w, runner::SweepRunner& sweep, Tracer& tr,
                   double seconds, bool replay, Checks& checks,
                   const std::function<double()>& setup_sample = {}) {
  PassStats st;
  const double wall0 = wall_s();
  double cpu0 = cpu_s();
  std::size_t next = 0;
  while (next < w.digest_items() || wall_s() - wall0 < seconds) {
    if (setup_sample) cpu0 += setup_sample();
    const std::size_t first = next;
    const std::size_t count = w.block_len(first);
    w.prepare(first, count);
    runner::RunSummary summary;
    {
      Span span(tr, "runner.run");
      summary = sweep.run(count, [&](const runner::PointContext& pc) {
        const std::size_t i = first + pc.index;
        const double a = cpu_s();
        runner::Rows rows;
        {
          Span item(tr, "item");
          rows = w.run_item(i, tr);
        }
        st.item_s.push_back(cpu_s() - a);
        {
          Span check(tr, "bench.check");
          w.absorb(i, i < w.digest_items() ? &st.digest : nullptr, checks);
        }
        if (replay) {
          Span r(tr, "replay");
          w.replay(i, tr, checks);
        }
        return rows;
      });
    }
    for (const auto& o : summary.outcomes) {
      if (!o.ok()) st.errors.push_back(o.error);
    }
    st.failed += summary.failed;
    st.items += count;
    next += count;
  }
  st.cpu = cpu_s() - cpu0;
  st.wall = wall_s() - wall0;
  w.finish_pass(checks);
  return st;
}

runner::RunnerOptions runner_options(const RunOptions& opts,
                                     const Workload& w) {
  runner::RunnerOptions ro;
  ro.csv_path = opts.out_dir + "/" + opts.workload + ".csv";
  ro.csv_columns = w.columns();
  ro.threads = 1;
  ro.max_attempts = 1;  // a retry would time the same item twice
  return ro;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(double v, int digits = 4) {
  std::ostringstream os;
  os.precision(digits);
  os << v;
  return os.str();
}

}  // namespace

RunReport run_workload(const RunOptions& opts) {
  constexpr int kSetupRepeats = 5;
  std::filesystem::create_directories(opts.out_dir);

  // Set-up: engines, parser, runner and its output files.  It is repeated
  // before the first item (the last instance runs the items) and once more
  // before every block of the untraced pass: its few tens of microseconds
  // swing with the host's momentary state, so the median is taken over
  // samples spread across the whole run.
  using RunnerPtr = std::unique_ptr<runner::SweepRunner>;
  auto set_up = [&opts](std::unique_ptr<Workload>& w, RunnerPtr& sweep) {
    const double t0 = cpu_s();
    w = make_workload(opts.workload, opts.seed);
    sweep = std::make_unique<runner::SweepRunner>(opts.workload,
                                                  runner_options(opts, *w));
    sweep->run(0, [](const runner::PointContext&) { return runner::Rows{}; });
    return cpu_s() - t0;
  };
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  RunnerPtr sweep;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup_s.push_back(set_up(w, sweep));
  }
  // A throwaway set-up between blocks; returns all the CPU time it cost.
  auto setup_sample = [&set_up, &setup_s] {
    const double t0 = cpu_s();
    {
      std::unique_ptr<Workload> spare;
      RunnerPtr spare_sweep;
      setup_s.push_back(set_up(spare, spare_sweep));
    }
    return cpu_s() - t0;
  };

  Checks checks;
  const double untraced_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  Tracer off(false);
  const PassStats a = run_pass(*w, *sweep, off, untraced_seconds, false,
                               checks, setup_sample);

  RunReport rep;
  const std::size_t done = a.items - a.failed;
  const TailPoint tail = tail_point(a.item_s);
  rep.metrics["setup_s"] = {median(setup_s), "s"};
  rep.metrics["items_per_s"] = {a.cpu > 0 ? done / a.cpu : 0.0, "1/s"};
  rep.metrics["item_p50_ms"] = {1e3 * median(a.item_s), "ms"};
  rep.metrics["item_tail_ms"] = {1e3 * tail.value, "ms"};
  rep.digest = a.digest.value();
  rep.digest_items = w->digest_items();
  rep.notes.push_back("items: " + std::to_string(a.items) + " attempted, " +
                      std::to_string(done) + " completed in " + fmt(a.cpu) +
                      " s of CPU time, " + fmt(a.wall) + " s of wall time (" +
                      fmt(a.wall > 0 ? done / a.wall : 0.0) +
                      " items per wall second)");
  rep.notes.push_back("item_tail_ms is the p" + fmt(tail.percentile, 6) +
                      " item time over " + std::to_string(a.item_s.size()) +
                      " items");

  std::size_t items = a.items;
  std::size_t failed_items = a.failed;
  std::vector<std::string> errors = a.errors;
  if (opts.trace) {
    w->restart();
    Tracer tr(true);
    const PassStats b =
        run_pass(*w, *sweep, tr, opts.seconds - untraced_seconds, true, checks);
    checks.expect(b.digest.value() == a.digest.value(),
                  "traced pass digest differs from the untraced pass");
    items += b.items;
    failed_items += b.failed;
    errors.insert(errors.end(), b.errors.begin(), b.errors.end());
    // Tracing overhead: the same leading items, timed in both passes.
    const std::size_t common = std::min(a.item_s.size(), b.item_s.size());
    const auto sum_first = [common](const std::vector<double>& v) {
      double total = 0.0;
      for (std::size_t k = 0; k < common; ++k) total += v[k];
      return total;
    };
    rep.trace_path = opts.out_dir + "/" + opts.workload + ".trace.json";
    tr.write_chrome_json(
        rep.trace_path, opts.workload,
        {{"seed", static_cast<double>(opts.seed)},
         {"items", static_cast<double>(b.items - b.failed)},
         {"common_items", static_cast<double>(common)},
         {"untraced_common_s", sum_first(a.item_s)},
         {"traced_common_s", sum_first(b.item_s)}});
  }
  rep.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  rep.attempted = items + checks.run;
  rep.failed = failed_items + checks.failures.size();
  rep.correct = rep.failed == 0;
  rep.notes.push_back("failed_ratio: " + std::to_string(rep.failed) + " / " +
                      std::to_string(rep.attempted) + " (items " +
                      std::to_string(items) + ", checks " +
                      std::to_string(checks.run) + ")");
  for (const auto& e : errors) rep.notes.push_back("FAILED item: " + e);
  for (const auto& f : checks.failures) rep.notes.push_back("FAILED: " + f);
  return rep;
}

}  // namespace perfbench
