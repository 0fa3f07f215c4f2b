#include "energy/profiles.h"

namespace idgka::energy {

namespace {

constexpr double kStrongArmPowerMw = 240.0;  // Carman et al.
constexpr double kP3BaselineMs = 8.8;        // MIRACL mod-exp on P-III 450
constexpr double kStrongArmModExpMs = 37.92;

// Symmetric/hash per-block costs. The paper only states these are "orders of
// magnitude lower than modular exponentiations" (citing Carman et al. and
// Hodjat-Verbauwhede); we charge ~1.6 uJ per AES block and ~1.0 uJ per
// SHA-256 block on the StrongARM, consistent with those reports. They are
// negligible against the 9.1 mJ mod-exp, exactly as the paper assumes.
constexpr double kAesBlockMj = 0.0016;
constexpr double kHashBlockMj = 0.0010;

CpuProfile make_strongarm() {
  CpuProfile p;
  p.name = "StrongARM-133MHz";
  auto set = [&](Op op, double mj, double ms) {
    p.op_mj[static_cast<std::size_t>(op)] = mj;
    p.op_ms[static_cast<std::size_t>(op)] = ms;
  };
  // Paper Table 2 (mJ, ms).
  set(Op::kModExp, 9.1, 37.92);
  set(Op::kMapToPoint, 18.4, 76.67);
  set(Op::kTatePairing, 47.0, 191.5);
  set(Op::kScalarMul, 8.8, 36.67);
  set(Op::kSignGenDsa, 9.1, 37.92);
  set(Op::kSignGenEcdsa, 8.8, 36.67);
  set(Op::kSignGenSok, 17.6, 73.33);
  set(Op::kSignGenGq, 18.2, 75.83);
  set(Op::kSignVerDsa, 11.1, 46.33);
  set(Op::kSignVerEcdsa, 10.9, 45.42);
  set(Op::kSignVerSok, 137.7, 573.75);
  set(Op::kSignVerGq, 18.2, 75.83);
  // A certificate check is one signature verification under the CA's
  // algorithm (the paper's baselines use same-algorithm CAs).
  set(Op::kCertVerifyDsa, 11.1, 46.33);
  set(Op::kCertVerifyEcdsa, 10.9, 45.42);
  set(Op::kSymEncBlock, kAesBlockMj, kAesBlockMj / kStrongArmPowerMw * 1000.0);
  set(Op::kSymDecBlock, kAesBlockMj, kAesBlockMj / kStrongArmPowerMw * 1000.0);
  set(Op::kHashBlock, kHashBlockMj, kHashBlockMj / kStrongArmPowerMw * 1000.0);
  return p;
}

CpuProfile make_p3() {
  CpuProfile p;
  p.name = "PentiumIII-450MHz";
  auto set = [&](Op op, double ms) {
    p.op_ms[static_cast<std::size_t>(op)] = ms;
    // The paper does not price P-III energy; keep a nominal 8 W figure so
    // the profile is still usable in what-if sweeps.
    p.op_mj[static_cast<std::size_t>(op)] = ms * 8.0;
  };
  // Paper Table 2 (P-III 450 MHz ms column).
  set(Op::kModExp, 8.8);
  set(Op::kMapToPoint, 17.78);
  set(Op::kTatePairing, 44.4);
  set(Op::kScalarMul, 8.5);
  set(Op::kSignGenDsa, 8.8);
  set(Op::kSignGenEcdsa, 8.5);
  set(Op::kSignGenSok, 17.0);
  set(Op::kSignGenGq, 17.6);
  set(Op::kSignVerDsa, 10.75);
  set(Op::kSignVerEcdsa, 10.5);
  set(Op::kSignVerSok, 133.2);
  set(Op::kSignVerGq, 17.6);
  set(Op::kCertVerifyDsa, 10.75);
  set(Op::kCertVerifyEcdsa, 10.5);
  set(Op::kSymEncBlock, 0.0002);
  set(Op::kSymDecBlock, 0.0002);
  set(Op::kHashBlock, 0.0001);
  return p;
}

}  // namespace

const CpuProfile& strongarm() {
  static const CpuProfile p = make_strongarm();
  return p;
}

const CpuProfile& pentium3_450() {
  static const CpuProfile p = make_p3();
  return p;
}

const RadioProfile& radio_100kbps() {
  static const RadioProfile r{"100kbps-transceiver", 10.8, 7.51};
  return r;
}

const RadioProfile& wlan_spectrum24() {
  static const RadioProfile r{"Spectrum24-WLAN", 0.66, 0.31};
  return r;
}

Extrapolated extrapolate_from_p3(double p3_ms) {
  const double sa_ms = p3_ms / kP3BaselineMs * kStrongArmModExpMs;
  return Extrapolated{sa_ms, kStrongArmPowerMw * sa_ms / 1000.0};
}

double ledger_compute_mj(const Ledger& ledger, const CpuProfile& cpu) {
  double total = 0.0;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    total += static_cast<double>(ledger.counts[i]) * cpu.op_mj[i];
  }
  return total;
}

double ledger_comm_mj(const Ledger& ledger, const RadioProfile& radio) {
  return (static_cast<double>(ledger.tx_bits) * radio.tx_uj_per_bit +
          static_cast<double>(ledger.rx_bits) * radio.rx_uj_per_bit) /
         1000.0;
}

double ledger_energy_mj(const Ledger& ledger, const CpuProfile& cpu,
                        const RadioProfile& radio) {
  return ledger_compute_mj(ledger, cpu) + ledger_comm_mj(ledger, radio);
}

}  // namespace idgka::energy
