// CellCharacterizer: sanity and consistency of the quantities handed to the
// architecture-level energy model.
#include <gtest/gtest.h>

#include "models/paper_params.h"
#include "sram/characterize.h"

namespace nvsram {
namespace {

using models::PaperParams;
using sram::CellCharacterizer;
using sram::CellEnergetics;
using sram::CellKind;

class CharacterizeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto pp = PaperParams::table1();
    CellCharacterizer ch(pp);
    cell_6t_ = new CellEnergetics(ch.characterize(CellKind::k6T));
    cell_nv_ = new CellEnergetics(ch.characterize(CellKind::kNvSram));
  }
  static void TearDownTestSuite() {
    delete cell_6t_;
    delete cell_nv_;
    cell_6t_ = nullptr;
    cell_nv_ = nullptr;
  }
  static CellEnergetics* cell_6t_;
  static CellEnergetics* cell_nv_;
};

CellEnergetics* CharacterizeTest::cell_6t_ = nullptr;
CellEnergetics* CharacterizeTest::cell_nv_ = nullptr;

// Bit-level pins of the nominal Table I energetics, the transient-path
// counterpart of SnmBitIdentity: a solver change that is meant to be
// bit-identical (assembly, factorization, step control bookkeeping) must
// keep every one of these literals.
using CharacterizeBitIdentity = CharacterizeTest;

TEST_F(CharacterizeBitIdentity, SixT) {
  const CellEnergetics& c = *cell_6t_;
  EXPECT_EQ(c.t_clk, 0x1.ca213d840baf8p-29);
  EXPECT_EQ(c.e_read, 0x1.1a62a4b9281d6p-48);
  EXPECT_EQ(c.e_write, 0x1.6602aeeaa1b41p-48);
  EXPECT_EQ(c.p_static_normal, 0x1.8f7075c1b7442p-26);
  EXPECT_EQ(c.p_static_sleep, 0x1.456c9af9b9856p-27);
  EXPECT_EQ(c.p_static_shutdown, 0x1.06d1b7bf0a909p-35);
  EXPECT_EQ(c.e_store, 0.0);
  EXPECT_EQ(c.e_restore, 0.0);
  EXPECT_EQ(c.e_sleep_transition, 0x1.bbf231d7e3e4ap-51);
}

TEST_F(CharacterizeBitIdentity, NvSram) {
  const CellEnergetics& c = *cell_nv_;
  EXPECT_EQ(c.t_clk, 0x1.ca213d840baf8p-29);
  EXPECT_EQ(c.e_read, 0x1.2aaf942bd067p-48);
  EXPECT_EQ(c.e_write, 0x1.72d290d7d7e59p-48);
  EXPECT_EQ(c.p_static_normal, 0x1.9a3128db459dcp-26);
  EXPECT_EQ(c.p_static_sleep, 0x1.5dffeba7f03dap-27);
  EXPECT_EQ(c.p_static_shutdown, 0x1.06f2dc59cecefp-35);
  EXPECT_EQ(c.e_store, 0x1.c3a967663f426p-42);
  EXPECT_EQ(c.t_store, 0x1.9c511dc3a41dep-26);
  EXPECT_EQ(c.e_restore, 0x1.26629ae2b512dp-45);
  EXPECT_EQ(c.t_restore, 0x1.209f2e6f59p-29);
  EXPECT_EQ(c.e_sleep_transition, 0x1.b2b4cb230b325p-51);
}

TEST_F(CharacterizeTest, ClockPeriodMatchesTable1) {
  EXPECT_NEAR(cell_6t_->t_clk, 1.0 / 300e6, 1e-12);
}

TEST_F(CharacterizeTest, AccessEnergiesFemtojouleScale) {
  for (const auto* c : {cell_6t_, cell_nv_}) {
    EXPECT_GT(c->e_read, 0.1e-15);
    EXPECT_LT(c->e_read, 100e-15);
    EXPECT_GT(c->e_write, 0.1e-15);
    EXPECT_LT(c->e_write, 100e-15);
  }
}

TEST_F(CharacterizeTest, NvAccessCostsSlightlyMore) {
  // Extra junction/MTJ loading on the storage nodes.
  EXPECT_GE(cell_nv_->e_read, cell_6t_->e_read);
  EXPECT_GE(cell_nv_->e_write, cell_6t_->e_write);
  EXPECT_LT(cell_nv_->e_write, 2.0 * cell_6t_->e_write);
}

TEST_F(CharacterizeTest, StaticPowerLadder) {
  for (const auto* c : {cell_6t_, cell_nv_}) {
    EXPECT_GT(c->p_static_normal, c->p_static_sleep);
    EXPECT_GT(c->p_static_sleep, c->p_static_shutdown);
    // Super cutoff: at least two orders below sleep (Fig. 6(c)).
    EXPECT_LT(c->p_static_shutdown, 0.01 * c->p_static_sleep);
  }
}

TEST_F(CharacterizeTest, NvLeakageComparableTo6T) {
  // V_CTRL control makes the NV-SRAM static power comparable (Fig. 6(c)).
  EXPECT_LT(cell_nv_->p_static_normal, 1.10 * cell_6t_->p_static_normal);
  EXPECT_GE(cell_nv_->p_static_normal, cell_6t_->p_static_normal);
}

TEST_F(CharacterizeTest, StoreTimingMatchesTable1) {
  // Two steps of (10 ns pulse + margin).
  EXPECT_GE(cell_nv_->t_store, 2 * 10e-9);
  EXPECT_LT(cell_nv_->t_store, 2 * 16e-9);
}

TEST_F(CharacterizeTest, StoreAndRestoreVerifiedBySimulation) {
  EXPECT_TRUE(cell_nv_->store_verified);
  EXPECT_TRUE(cell_nv_->restore_verified);
}

TEST_F(CharacterizeTest, StoreEnergyScale) {
  // ~ 2 x (VDD * 1.5 Ic * 10 ns) plus overheads: hundreds of fJ.
  EXPECT_GT(cell_nv_->e_store, 100e-15);
  EXPECT_LT(cell_nv_->e_store, 2000e-15);
}

TEST_F(CharacterizeTest, RestoreCheaperThanStore) {
  EXPECT_LT(cell_nv_->e_restore, 0.3 * cell_nv_->e_store);
  EXPECT_GT(cell_nv_->e_restore, 0.0);
}

TEST_F(CharacterizeTest, SixTHasNoNonvolatileNumbers) {
  EXPECT_DOUBLE_EQ(cell_6t_->e_store, 0.0);
  EXPECT_DOUBLE_EQ(cell_6t_->t_store, 0.0);
  EXPECT_DOUBLE_EQ(cell_6t_->e_restore, 0.0);
  EXPECT_FALSE(cell_6t_->store_verified);
}

TEST_F(CharacterizeTest, SleepTransitionIsSmall) {
  for (const auto* c : {cell_6t_, cell_nv_}) {
    EXPECT_GE(c->e_sleep_transition, 0.0);
    EXPECT_LT(c->e_sleep_transition, 50e-15);
  }
}

TEST_F(CharacterizeTest, DescribeMentionsVerification) {
  const auto text = cell_nv_->describe();
  EXPECT_NE(text.find("[verified]"), std::string::npos);
  EXPECT_EQ(text.find("NOT VERIFIED"), std::string::npos);
}

TEST(CharacterizeHot, TemperatureRaisesLeakageAndShrinksBet) {
  auto hot_pp = PaperParams::table1();
  hot_pp.temperature = 358.0;  // 85 C
  CellCharacterizer cold(PaperParams::table1());
  CellCharacterizer hot(hot_pp);
  const auto nv_cold = cold.characterize(CellKind::kNvSram);
  const auto nv_hot = hot.characterize(CellKind::kNvSram);
  EXPECT_TRUE(nv_hot.store_verified);
  EXPECT_TRUE(nv_hot.restore_verified);
  EXPECT_GT(nv_hot.p_static_normal, 3.0 * nv_cold.p_static_normal);
  EXPECT_GT(nv_hot.p_static_sleep, 3.0 * nv_cold.p_static_sleep);
}

TEST(CharacterizeFast, FastVariantStoresLess) {
  // Fig. 9(b) technology: Jc = 1e6 A/cm^2 -> 5x lower Ic -> cheaper store.
  CellCharacterizer slow(PaperParams::table1());
  CellCharacterizer fast(PaperParams::table1_fast());
  const auto nv_slow = slow.characterize(CellKind::kNvSram);
  const auto nv_fast = fast.characterize(CellKind::kNvSram);
  EXPECT_TRUE(nv_fast.store_verified);
  EXPECT_TRUE(nv_fast.restore_verified);
  EXPECT_LT(nv_fast.e_store, 0.5 * nv_slow.e_store);
  EXPECT_NEAR(nv_fast.t_clk, 1e-9, 1e-12);
}

}  // namespace
}  // namespace nvsram
