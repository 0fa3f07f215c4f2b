// Device energy profiles reproducing Tables 2 and 3 of the paper.
//
// Computational costs: 133 MHz StrongARM SA-1110 (240 mW) with per-op mJ
// figures; the paper derives them from the Carman et al. modular-exp cost
// (9.1 mJ) plus MIRACL P-III-450 timings extrapolated with Eq. (4):
//   alpha_ms = (gamma_ms / 8.8 ms) * 37.92 ms,  beta_mJ = 240 mW * alpha.
// Communication costs: 100 kbps radio transceiver (10.8 / 7.51 uJ per bit
// tx / rx) and the IEEE 802.11 Spectrum24 WLAN card (0.66 / 0.31 uJ/bit).
#pragma once

#include <array>
#include <string>

#include "energy/ops.h"

namespace idgka::energy {

/// Microprocessor profile: energy per operation (mJ) + timing (ms).
struct CpuProfile {
  std::string name;
  std::array<double, kOpCount> op_mj{};
  std::array<double, kOpCount> op_ms{};

  [[nodiscard]] double mj(Op op) const { return op_mj[static_cast<std::size_t>(op)]; }
  [[nodiscard]] double ms(Op op) const { return op_ms[static_cast<std::size_t>(op)]; }
};

/// Radio transceiver profile: energy per transmitted/received bit (uJ).
struct RadioProfile {
  std::string name;
  double tx_uj_per_bit = 0.0;
  double rx_uj_per_bit = 0.0;
};

/// 133 MHz "StrongARM" SA-1110 (paper Table 2, mJ + ms columns).
[[nodiscard]] const CpuProfile& strongarm();
/// Pentium III 450 MHz (paper Table 2 timing column; energy not defined by
/// the paper, extrapolated at the P-III's ~8 W as a reference only).
[[nodiscard]] const CpuProfile& pentium3_450();

/// 100 kbps radio transceiver module (paper Table 3).
[[nodiscard]] const RadioProfile& radio_100kbps();
/// IEEE 802.11 Spectrum24 LA-4121 WLAN card (paper Table 3).
[[nodiscard]] const RadioProfile& wlan_spectrum24();

/// Eq. (4): extrapolates a P-III-450 timing (ms) to StrongARM ms and mJ.
struct Extrapolated {
  double strongarm_ms;
  double strongarm_mj;
};
[[nodiscard]] Extrapolated extrapolate_from_p3(double p3_ms);

/// Total energy (mJ) a node spends according to a ledger:
///   sum(op counts * cpu cost) + tx_bits*tx_uJ/bit/1000 + rx_bits*rx/1000.
[[nodiscard]] double ledger_energy_mj(const Ledger& ledger, const CpuProfile& cpu,
                                      const RadioProfile& radio);

/// Computation-only energy (mJ).
[[nodiscard]] double ledger_compute_mj(const Ledger& ledger, const CpuProfile& cpu);
/// Communication-only energy (mJ).
[[nodiscard]] double ledger_comm_mj(const Ledger& ledger, const RadioProfile& radio);

/// Paper Table 3 item sizes (bits) used for message accounting.
namespace wire {
inline constexpr std::size_t kDsaCertBits = 263 * 8;
inline constexpr std::size_t kEcdsaCertBits = 86 * 8;
inline constexpr std::size_t kDsaSigBits = 320;
inline constexpr std::size_t kEcdsaSigBits = 320;
inline constexpr std::size_t kSokSigBits = 388;
inline constexpr std::size_t kGqSigBits = 1184;
inline constexpr std::size_t kIdBits = 32;
inline constexpr std::size_t kGroupElementBits = 1024;  ///< z, X (|p| = 1024)
inline constexpr std::size_t kGqModulusBits = 1024;     ///< t (|n| = 1024)
}  // namespace wire

}  // namespace idgka::energy
