#include "sim/battery.h"

#include <stdexcept>

namespace idgka::sim {

BatteryBank::BatteryBank(PowerConfig config) : cfg_(config) {
  if (cfg_.cpu == nullptr || cfg_.radio == nullptr) {
    throw std::invalid_argument("BatteryBank: cpu/radio profile must be set");
  }
  if (cfg_.capacity_mj < 0.0 || cfg_.idle_mw < 0.0) {
    throw std::invalid_argument("BatteryBank: capacity/idle must be >= 0");
  }
}

void BatteryBank::add_node(std::uint32_t id, SimTime now) {
  auto [it, inserted] = cells_.try_emplace(id);
  if (inserted) it->second.last_us = now;
}

bool BatteryBank::settle(Cell& cell, SimTime now) {
  if (!cell.alive) return false;
  if (now > cell.last_us) {
    cell.idle_mj +=
        cfg_.idle_mw * (static_cast<double>(now - cell.last_us) / static_cast<double>(kUsPerSec));
    cell.last_us = now;
  }
  if (cfg_.depletes() &&
      cell.idle_mj + cell.banked_mj + cell.ledger_mj >= cfg_.capacity_mj) {
    cell.alive = false;
    ++deaths_;
    if (!first_death_ || now < *first_death_) first_death_ = now;
    return true;
  }
  return false;
}

bool BatteryBank::update(std::uint32_t id, const energy::Ledger& ledger, SimTime now) {
  const auto it = cells_.find(id);
  if (it == cells_.end()) throw std::invalid_argument("BatteryBank: unknown node");
  Cell& cell = it->second;
  const double mj = energy::ledger_energy_mj(ledger, *cfg_.cpu, *cfg_.radio);
  // A ledger that shrank means the member's per-session state was rebuilt
  // (a flat session drops departed ledgers, so a rejoin restarts near
  // zero); bank exactly the lost difference so the integral stays
  // continuous and monotonic without double-counting the share the fresh
  // ledger still holds.
  if (mj + 1e-9 < cell.ledger_mj) cell.banked_mj += cell.ledger_mj - mj;
  cell.ledger_mj = mj;
  return settle(cell, now);
}

bool BatteryBank::tick(std::uint32_t id, SimTime now) {
  const auto it = cells_.find(id);
  if (it == cells_.end()) throw std::invalid_argument("BatteryBank: unknown node");
  return settle(it->second, now);
}

bool BatteryBank::alive(std::uint32_t id) const {
  const auto it = cells_.find(id);
  if (it == cells_.end()) throw std::invalid_argument("BatteryBank: unknown node");
  return it->second.alive;
}

double BatteryBank::total_consumed_mj() const {
  double total = 0.0;
  for (const auto& [id, cell] : cells_) {
    total += cell.idle_mj + cell.banked_mj + cell.ledger_mj;
  }
  return total;
}

}  // namespace idgka::sim
