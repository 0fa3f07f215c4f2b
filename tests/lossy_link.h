// Lossy links for the test suites. uniform_loss() is the link config of a
// lossy sim::ProtocolDriver; set_lossy_link() puts the same link under a
// raw net::Network through its Transport hook: each (frame, receiver) copy
// is priced by a sim::LinkModel, a dropped copy is accounted with
// record_drop(), and every other copy is deposited at once, so the network
// stays lockstep — no clock, no round barrier — while it loses copies the
// way a driver's link does.
#pragma once

#include <cstdint>
#include <memory>

#include "net/network.h"
#include "sim/link.h"

namespace idgka::test {

/// Independent loss `p` per copy: a Gilbert–Elliott chain that loses with
/// the same probability in both states.
inline sim::LinkConfig uniform_loss(double p) {
  sim::LinkConfig cfg;
  cfg.loss_good = p;
  cfg.loss_bad = p;
  return cfg;
}

/// Installs the lossy link on `net` (remove it with `set_transport(nullptr)`)
/// and returns it, so a test can read copies_offered()/copies_dropped().
/// Deterministic under `seed`.
inline std::shared_ptr<sim::LinkModel> set_lossy_link(net::Network& net, double loss,
                                                      std::uint64_t seed) {
  auto link = std::make_shared<sim::LinkModel>(uniform_loss(loss), seed);
  net.set_transport([&net, link](const wire::Frame& frame, std::uint32_t to) {
    if (link->transmit(frame.size_bits(), frame.sender(), to).dropped) {
      net.record_drop(frame, to);
    } else {
      net.deposit(frame, to);
    }
  });
  return link;
}

}  // namespace idgka::test
