// Self-tests of the benchmark's input generators, checks and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/linter.h"
#include "spice/netlist_parser.h"
#include "sram/testbench.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace sram = nvsram::sram;

bool same_point(const DesignPoint& a, const DesignPoint& b) {
  return a.fast == b.fast && a.temperature == b.temperature &&
         a.power_switch_vth == b.power_switch_vth &&
         a.vctrl_normal == b.vctrl_normal;
}

bool same_deck(const DeckSpec& a, const DeckSpec& b) {
  return a.rows == b.rows && a.cols == b.cols && a.defect == b.defect;
}

std::string scratch_dir(const std::string& name) {
  const auto dir =
      std::filesystem::current_path() / "selftest_out" / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Inputs, SameSeedGivesSameInputs) {
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(same_point(design_point(11, i), design_point(11, i))) << i;
    EXPECT_TRUE(same_deck(deck_spec(11, i), deck_spec(11, i))) << i;
  }
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(sample_seed(11, k), sample_seed(11, k));
  }
}

TEST(Inputs, DifferentSeedChangesInputs) {
  for (std::size_t i = 2; i < 64; ++i) {
    EXPECT_FALSE(same_point(design_point(1, i), design_point(2, i))) << i;
  }
  std::size_t moved = 0;
  for (std::size_t i = 1; i < 65; ++i) {
    moved += !same_deck(deck_spec(1, i), deck_spec(2, i));
  }
  EXPECT_GT(moved, 0u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NE(sample_seed(1, k), sample_seed(2, k));
  }
}

TEST(Inputs, NominalPointsComeFirst) {
  const auto p0 = design_point(5, 0).params();
  const auto p1 = design_point(5, 1).params();
  EXPECT_EQ(p0.fingerprint(),
            nvsram::models::PaperParams::table1().fingerprint());
  EXPECT_EQ(p1.fingerprint(),
            nvsram::models::PaperParams::table1_fast().fingerprint());
}

// characterize() gates its op script and its sleep script; a generated
// point the gate rejects would throw instead of measuring.
TEST(Inputs, EveryGeneratedPointPassesTheLintGate) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t i = 0; i < 24; ++i) {
      const auto pp = design_point(seed, i).params();
      for (auto kind : {sram::CellKind::k6T, sram::CellKind::kNvSram}) {
        sram::CellTestbench op(kind, pp);
        schedule_op_script(op);
        const auto r = gate_report(op, pp);
        EXPECT_FALSE(r.has_errors())
            << "seed " << seed << " point " << i << "\n" << r.format();
        sram::CellTestbench sleep(kind, pp);
        schedule_sleep_script(sleep);
        EXPECT_FALSE(gate_report(sleep, pp).has_errors())
            << "seed " << seed << " point " << i;
      }
    }
  }
}

// The gate check above is not vacuous: a store pulse shorter than the MTJ
// switching time is rejected.
TEST(Inputs, LintGateRejectsATooShortStorePulse) {
  auto pp = nvsram::models::PaperParams::table1();
  pp.store_pulse = 2e-9;
  sram::CellTestbench tb(sram::CellKind::kNvSram, pp);
  schedule_op_script(tb);
  EXPECT_TRUE(gate_report(tb, pp).has_errors());
}

// One full group of the mix (the 64x64 deck is clean by construction and
// too slow for a unit test; the benchmark itself checks it every run).
TEST(Inputs, EveryGeneratedDeckLintsToItsExpectedCounts) {
  nvsram::spice::NetlistParser parser;
  for (std::size_t i = 1; i <= 8; ++i) {
    const DeckSpec d = deck_spec(4, i);
    const auto net = parser.parse(
        nvsram::testsupport::make_nvsram_array_netlist(d.rows, d.cols,
                                                       d.defect));
    const auto report = nvsram::lint::lint_netlist(*net);
    const LintCounts want = expected_lint_counts(d);
    EXPECT_EQ(report.size(), want.findings) << d.rows << "x" << d.cols;
    EXPECT_EQ(report.count(nvsram::lint::Severity::kError), want.errors);
    if (d.defect == nvsram::testsupport::ArrayDefect::kNone) {
      EXPECT_TRUE(report.empty());
    }
  }
}

TEST(Stats, TailPointLeavesTenItemsBeyond) {
  for (std::size_t n : {11u, 12u, 50u, 100u, 101u, 999u, 1000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
    const TailPoint t = tail_point(v);
    const auto beyond = std::count_if(v.begin(), v.end(),
                                      [&](double x) { return x > t.value; });
    EXPECT_EQ(beyond, 10) << n;
    EXPECT_LT(t.percentile, 100.0);
  }
  const TailPoint t100 = tail_point({1.0, 2.0, 3.0});
  EXPECT_EQ(t100.percentile, 100.0);
  EXPECT_EQ(t100.value, 3.0);
  EXPECT_DOUBLE_EQ(tail_point(std::vector<double>(101, 1.0)).percentile, 90.0);
}

TEST(Stats, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

// Runs only the digest prefix (seconds is tiny): same seed, same digest;
// another seed, another digest.
TEST(Run, SameSeedGivesSameDigest) {
  for (const char* w : {"montecarlo", "design_sweep"}) {
    RunOptions o;
    o.workload = w;
    o.seconds = 1e-3;
    o.out_dir = scratch_dir(w);
    o.seed = 9;
    const auto a = run_workload(o);
    const auto b = run_workload(o);
    ASSERT_TRUE(a.correct) << w;
    ASSERT_TRUE(b.correct) << w;
    EXPECT_EQ(a.digest, b.digest) << w;
    o.seed = 10;
    const auto c = run_workload(o);
    ASSERT_TRUE(c.correct) << w;
    EXPECT_NE(a.digest, c.digest) << w;
  }
}

TEST(Run, UnknownWorkloadIsRejected) {
  RunOptions o;
  o.workload = "nope";
  o.out_dir = scratch_dir("nope");
  EXPECT_THROW(run_workload(o), std::invalid_argument);
}

}  // namespace
