#include "sim/link.h"

#include <cmath>
#include <stdexcept>

namespace idgka::sim {

double LinkConfig::average_loss() const {
  const double denom = p_good_bad + p_bad_good;
  const double pi_bad = denom > 0.0 ? p_good_bad / denom : 0.0;
  return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
}

LinkConfig LinkConfig::bursty(double average_loss, double mean_burst) {
  if (average_loss < 0.0 || average_loss >= 0.4) {
    throw std::invalid_argument("LinkConfig::bursty: average_loss must be in [0, 0.4)");
  }
  if (mean_burst < 1.0) {
    throw std::invalid_argument("LinkConfig::bursty: mean_burst must be >= 1");
  }
  LinkConfig cfg;
  if (average_loss == 0.0) return cfg;
  cfg.loss_bad = 0.5;
  cfg.p_bad_good = 1.0 / mean_burst;
  // Stationary bad probability pi solves pi * loss_bad = average_loss;
  // p_good_bad = pi / (1 - pi) * p_bad_good keeps the chain stationary.
  const double pi_bad = average_loss / cfg.loss_bad;
  cfg.p_good_bad = pi_bad / (1.0 - pi_bad) * cfg.p_bad_good;
  return cfg;
}

void LinkConfig::validate() const {
  if (bandwidth_bps <= 0.0) throw std::invalid_argument("LinkConfig: bandwidth_bps <= 0");
  for (const double p : {p_good_bad, p_bad_good, loss_good, loss_bad}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument("LinkConfig: probabilities must be in [0, 1]");
    }
  }
  if (loss_good >= 1.0 && loss_bad >= 1.0) {
    throw std::invalid_argument("LinkConfig: at least one state must deliver");
  }
}

LinkModel::LinkModel(LinkConfig config, std::uint64_t seed)
    : cfg_(config), rng_(seed ^ 0x73696d6c696e6bULL) {
  cfg_.validate();
}

double LinkModel::uniform() { return rng_.next_double(); }

LinkModel::Verdict LinkModel::transmit(std::size_t bits, std::uint32_t sender,
                                       std::uint32_t receiver) {
  ++offered_;
  Verdict verdict;

  const std::uint64_t key = (static_cast<std::uint64_t>(sender) << 32) | receiver;
  const auto it = bad_.find(key);
  bool bad = it != bad_.end();
  if (bad) {
    if (cfg_.p_bad_good > 0.0 && uniform() < cfg_.p_bad_good) {
      bad = false;
      bad_.erase(it);
    }
  } else {
    if (cfg_.p_good_bad > 0.0 && uniform() < cfg_.p_good_bad) {
      bad = true;
      bad_.insert(key);
    }
  }
  const double loss = bad ? cfg_.loss_bad : cfg_.loss_good;
  if (loss > 0.0 && uniform() < loss) {
    ++dropped_;
    verdict.dropped = true;
    return verdict;
  }

  const double serialization_us = static_cast<double>(bits) * 1e6 / cfg_.bandwidth_bps;
  SimTime delay = static_cast<SimTime>(std::llround(serialization_us)) + cfg_.latency_us;
  if (cfg_.jitter_us > 0) {
    delay += static_cast<SimTime>(uniform() * static_cast<double>(cfg_.jitter_us + 1));
  }
  verdict.delay_us = delay;
  return verdict;
}

}  // namespace idgka::sim
