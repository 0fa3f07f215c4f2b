// Aggregate energy / traffic roll-up for a hierarchical session.
//
// Every leaf member, every head-tier participant and every member that has
// since departed (or whose per-member ledger was retired by a cluster
// split / head-tier rebuild) contributed operations and radio traffic; the
// report sums all of it so scaling experiments can price a whole deployment
// with one call.
#pragma once

#include "energy/ops.h"
#include "energy/profiles.h"
#include "net/network.h"

namespace idgka::cluster {

struct AggregateReport {
  std::size_t members = 0;
  std::size_t clusters = 0;
  /// Everything: current leaf members + head tier + retired ledgers.
  energy::Ledger total;
  /// Every tier above the leaves (the extra cost of the hierarchy): the
  /// current tier's lifetime energy, its retired tenures (heads that left
  /// it) included. A tier that is rebuilt or dissolved moves its history
  /// into `total`'s retired part.
  energy::Ledger head_tier;
  /// Live network counters summed over every leaf network + the head net.
  net::TrafficStats traffic;

  /// Whole-deployment energy under a device profile, in millijoules.
  [[nodiscard]] double energy_mj(const energy::CpuProfile& cpu,
                                 const energy::RadioProfile& radio) const;
  /// Total broadcast payload volume (tx side), in bits.
  [[nodiscard]] std::uint64_t tx_bits() const { return total.tx_bits; }
};

}  // namespace idgka::cluster
