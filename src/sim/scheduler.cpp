#include "sim/scheduler.h"

namespace idgka::sim {

void Scheduler::at(SimTime when, std::function<void()> fn) {
  const SimTime n = now();
  queue_.emplace(std::make_pair(when < n ? n : when, seq_++), std::move(fn));
}

void Scheduler::run_until(SimTime horizon) {
  while (!queue_.empty() && queue_.begin()->first.first <= horizon) {
    auto node = queue_.extract(queue_.begin());
    advance_to(node.key().first);
    ++executed_;
    node.mapped()();
  }
  advance_to(horizon);
}

}  // namespace idgka::sim
