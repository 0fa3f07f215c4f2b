// Battery / radio power model: joules over virtual time, death at zero.
//
// The energy layer (src/energy) prices a node's lifetime operation ledger
// in millijoules under a CPU + radio profile; the BatteryBank integrates
// that price over virtual time, adds a constant idle draw while the node
// lives, and declares the node dead the moment the total crosses the
// configured capacity. First-node-death time is the paper-style lifetime
// metric for a sensor deployment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "energy/profiles.h"
#include "sim/scheduler.h"

namespace idgka::sim {

struct PowerConfig {
  /// CPU profile pricing the operation counts (default: the paper's
  /// StrongARM SA-1110).
  const energy::CpuProfile* cpu = &energy::strongarm();
  /// Radio profile pricing tx/rx bits (default: the paper's 100 kbps
  /// transceiver).
  const energy::RadioProfile* radio = &energy::radio_100kbps();
  /// Battery capacity in millijoules; 0 disables depletion entirely.
  double capacity_mj = 0.0;
  /// Constant draw (milliwatts) while the node is alive — sleep current,
  /// sensing, timers.
  double idle_mw = 0.0;

  [[nodiscard]] bool depletes() const { return capacity_mj > 0.0; }
};

class BatteryBank {
 public:
  explicit BatteryBank(PowerConfig config);

  void add_node(std::uint32_t id, SimTime now);

  /// Updates the node's protocol cost to `ledger` (its lifetime operation +
  /// traffic ledger, priced under the configured profiles) and integrates
  /// idle draw since the last update. Returns true when exactly this update
  /// depleted the battery — the node just died. Dead nodes stop draining.
  bool update(std::uint32_t id, const energy::Ledger& ledger, SimTime now);

  /// Integrates idle draw only, keeping the last known protocol cost (for
  /// nodes currently outside the session, whose ledger is unreachable).
  bool tick(std::uint32_t id, SimTime now);

  [[nodiscard]] bool alive(std::uint32_t id) const;
  [[nodiscard]] double total_consumed_mj() const;
  [[nodiscard]] std::size_t deaths() const { return deaths_; }
  [[nodiscard]] std::optional<SimTime> first_death_us() const { return first_death_; }
  [[nodiscard]] const PowerConfig& config() const { return cfg_; }

 private:
  struct Cell {
    SimTime last_us = 0;
    double idle_mj = 0.0;
    double ledger_mj = 0.0;
    /// Protocol energy folded in from tenures whose ledger has since reset
    /// (rejoins, cluster splits retiring per-member ledgers).
    double banked_mj = 0.0;
    bool alive = true;
  };

  bool settle(Cell& cell, SimTime now);

  PowerConfig cfg_;
  std::map<std::uint32_t, Cell> cells_;
  std::size_t deaths_ = 0;
  std::optional<SimTime> first_death_;
};

}  // namespace idgka::sim
