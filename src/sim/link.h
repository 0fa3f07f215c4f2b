// Per-link radio channel model: serialization + latency + bursty loss.
//
// Every (sender, receiver) copy handed to the timed transport is priced by
// one LinkModel::transmit() call: the delay is the bandwidth-derived
// serialization time of the frame plus a base propagation/MAC latency plus
// optional uniform jitter, and loss is drawn from a two-state
// Gilbert–Elliott chain kept per directed link — so losses cluster into
// bursts the way real radio fades do. Setting loss_good = loss_bad gives
// independent uniform drops. This is the only loss model: net::Network is a
// lossless medium and the driver's transport reports every dropped copy.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "mpint/random.h"
#include "sim/scheduler.h"

namespace idgka::sim {

struct LinkConfig {
  /// Bandwidth used for serialization delay (paper radio: 100 kbps).
  double bandwidth_bps = 100'000.0;
  /// Fixed propagation + MAC latency per copy.
  SimTime latency_us = 2'000;
  /// Extra uniform delay in [0, jitter_us] per copy.
  SimTime jitter_us = 0;

  // Gilbert–Elliott channel, advanced once per copy on each directed link:
  // in the Good state a copy is lost with `loss_good`, in the Bad state
  // with `loss_bad`; the state flips Good->Bad with `p_good_bad` and
  // Bad->Good with `p_bad_good` before each draw.
  double p_good_bad = 0.0;
  double p_bad_good = 0.25;
  double loss_good = 0.0;
  double loss_bad = 0.0;

  /// Stationary average loss probability of the chain.
  [[nodiscard]] double average_loss() const;

  /// A bursty channel with the given stationary average loss: bad bursts
  /// last `mean_burst` copies and lose half the copies inside a burst.
  /// Requires average_loss in [0, 0.4) and mean_burst >= 1.
  [[nodiscard]] static LinkConfig bursty(double average_loss, double mean_burst = 4.0);

  void validate() const;
};

class LinkModel {
 public:
  LinkModel(LinkConfig config, std::uint64_t seed);

  struct Verdict {
    bool dropped = false;
    SimTime delay_us = 0;
  };

  /// Prices one (message, receiver) copy of `bits` over the directed link
  /// sender -> receiver: advances the link's Gilbert–Elliott state, draws
  /// loss and computes the arrival delay. Deterministic under the seed and
  /// call order.
  Verdict transmit(std::size_t bits, std::uint32_t sender, std::uint32_t receiver);

  [[nodiscard]] const LinkConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t copies_offered() const { return offered_; }
  [[nodiscard]] std::uint64_t copies_dropped() const { return dropped_; }

 private:
  double uniform();

  LinkConfig cfg_;
  mpint::XoshiroRng rng_;
  /// Directed links (sender << 32 | receiver) currently in the Bad state;
  /// every other link is Good. Holding only Bad links keeps the set as
  /// small as the burst state, however many ids the link has carried.
  std::unordered_set<std::uint64_t> bad_;
  std::uint64_t offered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace idgka::sim
