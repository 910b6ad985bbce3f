// Monte-Carlo mismatch analysis: reproducibility, sane distributions, and
// the expected qualitative effects of variation knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "models/paper_params.h"
#include "sram/montecarlo.h"
#include "util/stats.h"

namespace nvsram {
namespace {

using models::PaperParams;
using sram::CellKind;
using sram::MonteCarlo;
using sram::VariationSpec;

TEST(MonteCarloTest, ZeroSigmaReproducesNominal) {
  VariationSpec spec;
  spec.vth_sigma = 0.0;
  spec.kp_rel_sigma = 0.0;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto nominal = sram::hold_snm(PaperParams::table1(), CellKind::kNvSram);
  const auto summary = mc.hold_snm(3, CellKind::kNvSram);
  EXPECT_EQ(summary.samples, 3);
  EXPECT_EQ(summary.failures, 0);
  EXPECT_NEAR(summary.stats.mean(), nominal.snm, 2e-3);
  EXPECT_LT(summary.stats.stddev(), 1e-6);
}

TEST(MonteCarloTest, SameSeedSameResults) {
  VariationSpec spec;
  spec.seed = 77;
  MonteCarlo a(PaperParams::table1(), spec);
  MonteCarlo b(PaperParams::table1(), spec);
  const auto ra = a.hold_snm(5);
  const auto rb = b.hold_snm(5);
  EXPECT_DOUBLE_EQ(ra.stats.mean(), rb.stats.mean());
  EXPECT_DOUBLE_EQ(ra.stats.min(), rb.stats.min());
}

TEST(MonteCarloTest, MismatchSpreadsAndDegradesSnm) {
  VariationSpec spec;
  spec.vth_sigma = 0.03;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto nominal = sram::hold_snm(PaperParams::table1(), CellKind::kNvSram);
  const auto summary = mc.hold_snm(24);
  EXPECT_GT(summary.stats.stddev(), 1e-3);      // variation spreads the SNM
  EXPECT_LT(summary.stats.min(), nominal.snm);  // mismatch only hurts
  // Mean of mismatched SNM sits below the nominal (min of two lobes).
  EXPECT_LT(summary.stats.mean(), nominal.snm + 1e-3);
}

TEST(MonteCarloTest, LargerSigmaLowersYield) {
  VariationSpec small;
  small.vth_sigma = 0.01;
  VariationSpec large;
  large.vth_sigma = 0.08;
  MonteCarlo mc_small(PaperParams::table1(), small);
  MonteCarlo mc_large(PaperParams::table1(), large);
  const auto rs = mc_small.hold_snm(24, CellKind::kNvSram, 0.18);
  const auto rl = mc_large.hold_snm(24, CellKind::kNvSram, 0.18);
  EXPECT_LE(rs.failures, rl.failures);
  EXPECT_GT(rl.stats.stddev(), rs.stats.stddev());
}

TEST(MonteCarloTest, StoreMarginDistribution) {
  VariationSpec spec;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto summary = mc.store_margin(16);
  EXPECT_EQ(summary.samples, 16);
  // Nominal overdrive is ~1.45-1.6x; variation spreads but rarely breaks it.
  EXPECT_GT(summary.stats.mean(), 1.2);
  EXPECT_LT(summary.stats.mean(), 2.0);
  EXPECT_GT(summary.yield(), 0.85);
  EXPECT_GT(summary.stats.stddev(), 0.005);
}

TEST(MonteCarloTest, ReadSnmWorseThanHoldUnderVariation) {
  VariationSpec spec;
  MonteCarlo mc_h(PaperParams::table1(), spec);
  MonteCarlo mc_r(PaperParams::table1(), spec);
  const auto h = mc_h.hold_snm(10);
  const auto r = mc_r.read_snm(10);
  EXPECT_LT(r.stats.mean(), h.stats.mean());
}

// ---- per-device mismatch streams ----

const std::vector<std::string> kCellFets = {"pu", "pd", "ax", "ps"};

models::FinFETParams varied(const sram::FetVary& vary, const std::string& name,
                            models::FinFETParams p) {
  vary(name, p);
  return p;
}

// Applies `vary` to one copy of `base` per name, visiting the names in the
// given order; the result is indexed like `names`.
template <typename Vary, typename Params>
std::vector<Params> vary_in_order(const Vary& vary, Params base,
                                  const std::vector<std::string>& names,
                                  bool reverse) {
  std::vector<Params> out(names.size(), base);
  for (std::size_t k = 0; k < names.size(); ++k) {
    const std::size_t i = reverse ? names.size() - 1 - k : k;
    vary(names[i], out[i]);
  }
  return out;
}

TEST(MonteCarloStreams, DrawsDoNotDependOnDeviceOrder) {
  VariationSpec spec;
  spec.vth_sigma = 0.03;
  const auto pp = PaperParams::table1();
  MonteCarlo mc(pp, spec);
  const auto fet = mc.draw_fet_vary();
  const auto mtj = mc.draw_mtj_vary();
  const auto fwd = vary_in_order(fet, pp.nmos(1), kCellFets, false);
  const auto bwd = vary_in_order(fet, pp.nmos(1), kCellFets, true);
  for (std::size_t i = 0; i < kCellFets.size(); ++i) {
    EXPECT_EQ(fwd[i].vth0, bwd[i].vth0) << kCellFets[i];
    EXPECT_EQ(fwd[i].kp, bwd[i].kp) << kCellFets[i];
  }
  const std::vector<std::string> mtjs = {"mtj_q", "mtj_qb"};
  const auto mtj_fwd = vary_in_order(mtj, pp.mtj, mtjs, false);
  const auto mtj_bwd = vary_in_order(mtj, pp.mtj, mtjs, true);
  for (std::size_t i = 0; i < mtjs.size(); ++i) {
    EXPECT_EQ(mtj_fwd[i].ra_product, mtj_bwd[i].ra_product) << mtjs[i];
    EXPECT_EQ(mtj_fwd[i].jc, mtj_bwd[i].jc) << mtjs[i];
  }
}

TEST(MonteCarloStreams, NamesSamplesAndDomainsGetDistinctDeltas) {
  VariationSpec spec;
  spec.vth_sigma = 0.02;
  spec.ra_rel_sigma = 0.05;
  const auto pp = PaperParams::table1();
  const auto base = pp.nmos(1);
  MonteCarlo mc(pp, spec);
  const auto first = mc.draw_fet_vary();
  const auto second = mc.draw_fet_vary();
  // Different names within one sample.
  for (std::size_t i = 0; i < kCellFets.size(); ++i) {
    for (std::size_t j = i + 1; j < kCellFets.size(); ++j) {
      EXPECT_NE(varied(first, kCellFets[i], base).vth0,
                varied(first, kCellFets[j], base).vth0)
          << kCellFets[i] << " vs " << kCellFets[j];
    }
  }
  // The same name in two samples.
  for (const auto& name : kCellFets) {
    EXPECT_NE(varied(first, name, base).vth0, varied(second, name, base).vth0)
        << name;
  }
  // FET and MTJ streams of one sample seed: two engines with one spec hand
  // out the same first sample seed.
  MonteCarlo fet_engine(pp, spec);
  MonteCarlo mtj_engine(pp, spec);
  const auto fet = fet_engine.draw_fet_vary();
  const auto mtj = mtj_engine.draw_mtj_vary();
  for (const auto& name : kCellFets) {
    const double z_fet = (varied(fet, name, base).vth0 - base.vth0) /
                         spec.vth_sigma;
    auto m = pp.mtj;
    mtj(name, m);
    const double z_mtj = (m.ra_product / pp.mtj.ra_product - 1.0) /
                         spec.ra_rel_sigma;
    EXPECT_GT(std::fabs(z_fet - z_mtj), 1e-6) << name;
  }
}

TEST(MonteCarloStreams, VthDeltasAreCenteredWithTheRequestedSigma) {
  VariationSpec spec;
  spec.vth_sigma = 0.02;
  spec.seed = 2015;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto base = PaperParams::table1().nmos(1);
  util::RunningStats deltas;
  while (deltas.count() < 20000) {
    const auto vary = mc.draw_fet_vary();
    for (const auto& name : kCellFets) {
      deltas.add(varied(vary, name, base).vth0 - base.vth0);
    }
  }
  const double n = static_cast<double>(deltas.count());
  EXPECT_LT(std::fabs(deltas.mean()), 4.0 * spec.vth_sigma / std::sqrt(n));
  EXPECT_NEAR(deltas.stddev(), spec.vth_sigma, 0.03 * spec.vth_sigma);
}

TEST(MonteCarloTest, YieldAccounting) {
  sram::MonteCarloSummary s;
  s.samples = 10;
  s.failures = 2;
  EXPECT_DOUBLE_EQ(s.yield(), 0.8);
  sram::MonteCarloSummary empty;
  EXPECT_DOUBLE_EQ(empty.yield(), 0.0);
}

}  // namespace
}  // namespace nvsram
