// Energy-model tests: the paper's Tables 2 and 3 constants, the Eq.-4
// extrapolation rule and ledger pricing.
#include "energy/profiles.h"

#include <gtest/gtest.h>

namespace idgka::energy {
namespace {

TEST(Profiles, StrongArmMatchesPaperTable2) {
  const CpuProfile& sa = strongarm();
  EXPECT_DOUBLE_EQ(sa.mj(Op::kModExp), 9.1);
  EXPECT_DOUBLE_EQ(sa.ms(Op::kModExp), 37.92);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kMapToPoint), 18.4);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kTatePairing), 47.0);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kScalarMul), 8.8);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignGenDsa), 9.1);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignGenEcdsa), 8.8);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignGenSok), 17.6);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignGenGq), 18.2);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignVerDsa), 11.1);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignVerEcdsa), 10.9);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignVerSok), 137.7);
  EXPECT_DOUBLE_EQ(sa.mj(Op::kSignVerGq), 18.2);
}

TEST(Profiles, PentiumMatchesPaperTimingColumn) {
  const CpuProfile& p3 = pentium3_450();
  EXPECT_DOUBLE_EQ(p3.ms(Op::kModExp), 8.8);
  EXPECT_DOUBLE_EQ(p3.ms(Op::kMapToPoint), 17.78);
  EXPECT_DOUBLE_EQ(p3.ms(Op::kTatePairing), 44.4);
  EXPECT_DOUBLE_EQ(p3.ms(Op::kSignVerSok), 133.2);
}

TEST(Profiles, RadioMatchesPaperTable3) {
  EXPECT_DOUBLE_EQ(radio_100kbps().tx_uj_per_bit, 10.8);
  EXPECT_DOUBLE_EQ(radio_100kbps().rx_uj_per_bit, 7.51);
  EXPECT_DOUBLE_EQ(wlan_spectrum24().tx_uj_per_bit, 0.66);
  EXPECT_DOUBLE_EQ(wlan_spectrum24().rx_uj_per_bit, 0.31);
}

TEST(Profiles, Eq4ExtrapolationReproducesPaperRows) {
  // alpha = gamma / 8.8 * 37.92; beta = 240 mW * alpha.
  const auto tate = extrapolate_from_p3(44.4);
  EXPECT_NEAR(tate.strongarm_ms, 191.3, 0.5);   // paper: 191.5
  EXPECT_NEAR(tate.strongarm_mj, 45.9, 1.2);    // paper: 47.0
  const auto map2pt = extrapolate_from_p3(17.78);
  EXPECT_NEAR(map2pt.strongarm_ms, 76.6, 0.2);  // paper: 76.67
  EXPECT_NEAR(map2pt.strongarm_mj, 18.4, 0.1);  // paper: 18.4
  const auto sok_ver = extrapolate_from_p3(133.2);
  EXPECT_NEAR(sok_ver.strongarm_ms, 573.9, 1.0);  // paper: 573.75
  EXPECT_NEAR(sok_ver.strongarm_mj, 137.7, 0.3);  // paper: 137.7
  const auto base = extrapolate_from_p3(8.8);
  EXPECT_NEAR(base.strongarm_ms, 37.92, 1e-9);    // self-consistent
  EXPECT_NEAR(base.strongarm_mj, 9.1, 0.01);
}

TEST(Profiles, PaperCommunicationRowsFromPerBitCosts) {
  // Table 3 cross-check: bits x per-bit = the printed mJ values.
  EXPECT_NEAR(263 * 8 * radio_100kbps().tx_uj_per_bit / 1000.0, 22.72, 0.01);
  EXPECT_NEAR(263 * 8 * radio_100kbps().rx_uj_per_bit / 1000.0, 15.80, 0.01);
  EXPECT_NEAR(86 * 8 * radio_100kbps().tx_uj_per_bit / 1000.0, 7.43, 0.01);
  EXPECT_NEAR(wire::kGqSigBits * radio_100kbps().tx_uj_per_bit / 1000.0, 12.79, 0.01);
  EXPECT_NEAR(wire::kSokSigBits * wlan_spectrum24().tx_uj_per_bit / 1000.0, 0.256, 0.001);
}

TEST(Ledger, RecordAndAccumulate) {
  Ledger a;
  a.record(Op::kModExp, 3);
  a.record(Op::kSignGenGq);
  a.tx_bits = 100;
  Ledger b;
  b.record(Op::kModExp);
  b.rx_bits = 50;
  a += b;
  EXPECT_EQ(a.count(Op::kModExp), 4U);
  EXPECT_EQ(a.count(Op::kSignGenGq), 1U);
  EXPECT_EQ(a.tx_bits, 100U);
  EXPECT_EQ(a.rx_bits, 50U);
}

TEST(Ledger, EnergyPricing) {
  Ledger l;
  l.record(Op::kModExp, 2);     // 18.2 mJ
  l.record(Op::kSignVerSok);    // 137.7 mJ
  l.tx_bits = 1000;             // 10.8 mJ on the 100kbps radio
  l.rx_bits = 1000;             // 7.51 mJ
  const double compute = ledger_compute_mj(l, strongarm());
  EXPECT_NEAR(compute, 18.2 + 137.7, 1e-9);
  const double comm = ledger_comm_mj(l, radio_100kbps());
  EXPECT_NEAR(comm, 10.8 + 7.51, 1e-9);
  EXPECT_NEAR(ledger_energy_mj(l, strongarm(), radio_100kbps()), compute + comm, 1e-9);
  // Per-op timing of the same ops (the Table 2 column).
  EXPECT_NEAR(strongarm().ms(Op::kModExp), 37.92, 1e-9);
  EXPECT_NEAR(strongarm().ms(Op::kSignVerSok), 573.75, 1e-9);
}

TEST(Ledger, OpNamesCoverAllOps) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    EXPECT_FALSE(op_name(static_cast<Op>(i)).empty());
  }
}

}  // namespace
}  // namespace idgka::energy
