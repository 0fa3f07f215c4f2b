#include "sim/driver.h"

#include <memory>
#include <stdexcept>

#include "obs/trace.h"

namespace idgka::sim {

namespace {

void validate(const DriverConfig& cfg) {
  if (cfg.round_timeout_us == 0) {
    throw std::invalid_argument("ProtocolDriver: round_timeout_us must be > 0");
  }
}

}  // namespace

ProtocolDriver::ProtocolDriver(Scheduler& scheduler, const DriverConfig& config,
                               std::uint64_t seed)
    : cfg_(config),
      link_(config.link, seed),
      owned_exec_(std::make_unique<engine::Executor>(scheduler)) {
  exec_ = owned_exec_.get();
  validate(cfg_);
}

ProtocolDriver::ProtocolDriver(engine::Executor& executor, const DriverConfig& config,
                               std::uint64_t seed)
    : exec_(&executor), cfg_(config), link_(config.link, seed) {
  validate(cfg_);
}

void ProtocolDriver::install(net::Network& network) {
  // The token is owned by the transport closure, which the network owns:
  // when the network is torn down mid-flight (head-tier rebuilds), pending
  // deposit events see the expired token and become no-ops instead of
  // touching a dead network.
  auto token = std::make_shared<int>(0);
  net::Network* net = &network;
  network.set_transport([this, net, token](const wire::Frame& frame, std::uint32_t to) {
    // The link serializes the actual frame bytes; paper-accounted bits are
    // for the energy model only. Capturing the frame in the deposit event
    // is an O(1) buffer reference — every in-flight copy of a broadcast
    // shares one encoding. The event is attributed to the posting run so a
    // resume_on_arrival await can fire the moment the channel goes quiet.
    const LinkModel::Verdict verdict = link_.transmit(frame.size_bits(), frame.sender(), to);
    if (verdict.dropped) {
      net->record_drop(frame, to);
      return;
    }
    exec_->post(verdict.delay_us,
                [net, frame, to, weak = std::weak_ptr<int>(token)] {
                  if (weak.expired()) return;
                  net->deposit(frame, to);
                },
                engine::ProtocolRun::current());
  });
  network.set_round_barrier([this] {
    if (engine::ProtocolRun* run = engine::ProtocolRun::current()) {
      run->await_round(cfg_.round_timeout_us, cfg_.resume_on_arrival);
    } else {
      // No run on this thread: a session op called directly rather than
      // through the driver, so the round waits by advancing the clock
      // itself. Two callers reach this: manet_patrol's `patrol.merge(squad)`
      // and a GroupSession::split whose offshoot shares the driver's link
      // (gka_dynamic_test's Split.OffshootTravelsOverTheDriversLink).
      Scheduler& sched = exec_->scheduler();
      sched.run_until(sched.now() + cfg_.round_timeout_us);
    }
  });
  network.set_frame_sniffer([this](const wire::Frame& frame) {
    ++frames_;
    bits_ += frame.accounted_bits();
    encoded_bits_ += frame.size_bits();
  });
  network.set_drop_observer([this](const wire::Frame& frame, std::uint32_t) {
    ++drop_copies_;
    drop_bits_ += frame.accounted_bits();
  });
}

void ProtocolDriver::attach(gka::GroupSession& session) {
  if (flat_ != nullptr || hier_ != nullptr) {
    throw std::logic_error("ProtocolDriver: already attached");
  }
  flat_ = &session;
  flat_->set_network_hook([this](net::Network& network) { install(network); });
}

void ProtocolDriver::attach(cluster::HierarchicalSession& session) {
  if (flat_ != nullptr || hier_ != nullptr) {
    throw std::logic_error("ProtocolDriver: already attached");
  }
  hier_ = &session;
  hier_->set_network_hook([this](net::Network& network) { install(network); });
}

OpOutcome ProtocolDriver::timed(const char* label,
                               const std::function<bool(OpOutcome&)>& op) {
  if (flat_ == nullptr && hier_ == nullptr) {
    throw std::logic_error("ProtocolDriver: no session attached");
  }
  OpOutcome outcome;
  const auto body = [this, label, &op, &outcome](engine::ProtocolRun& run) {
#if IDGKA_OBS
    // Span begins/ends while the run executes, on the run's own trace
    // track, so the virtual timestamps bracket exactly [start_us, end_us].
    const obs::Span span(label, "sim");
#else
    (void)label;
#endif
    outcome.start_us = run.now();
    try {
      outcome.success = op(outcome);
    } catch (const std::runtime_error&) {
      // A protocol run exhausted its retransmission budget (or a dependent
      // leaf/tier rekey did). The clock still advanced; report failure.
      outcome.success = false;
    }
    outcome.end_us = run.now();
  };
  if (engine::ProtocolRun* run = engine::ProtocolRun::current()) {
    // Already hosted (a scenario's group script): execute inline on
    // the calling run; its awaits interleave with other registered runs.
    body(*run);
  } else {
    // Plain-thread call: host the operation as a fresh ProtocolRun and
    // drive the engine until it (and any sibling runs) completes.
    exec_->submit("op", body);
    exec_->drain();
  }
  return outcome;
}

OpOutcome ProtocolDriver::form() {
  return timed("sim.op.form", [this](OpOutcome& out) {
    if (flat_ != nullptr) {
      const gka::RunResult result = flat_->form();
      out.rounds = result.rounds;
      out.retransmissions = result.retransmissions;
      return result.success;
    }
    return hier_->form().success;
  });
}

OpOutcome ProtocolDriver::join(std::uint32_t id) {
  return timed("sim.op.join", [this, id](OpOutcome& out) {
    if (flat_ != nullptr) {
      const gka::RunResult result = flat_->join(id);
      out.rounds = result.rounds;
      out.retransmissions = result.retransmissions;
      return result.success;
    }
    return hier_->join(id).success;
  });
}

OpOutcome ProtocolDriver::leave(std::uint32_t id) {
  return timed("sim.op.leave", [this, id](OpOutcome& out) {
    if (flat_ != nullptr) {
      const gka::RunResult result = flat_->leave(id);
      out.rounds = result.rounds;
      out.retransmissions = result.retransmissions;
      return result.success;
    }
    return hier_->leave(id).success;
  });
}

OpOutcome ProtocolDriver::partition(const std::vector<std::uint32_t>& ids) {
  return timed("sim.op.partition", [this, &ids](OpOutcome& out) {
    if (flat_ != nullptr) {
      const gka::RunResult result = flat_->partition(ids);
      out.rounds = result.rounds;
      out.retransmissions = result.retransmissions;
      return result.success;
    }
    return hier_->partition(ids).success;
  });
}

OpOutcome ProtocolDriver::admit(const std::vector<std::uint32_t>& ids) {
  return timed("sim.op.admit", [this, &ids](OpOutcome& out) {
    if (flat_ != nullptr) {
      bool all = true;
      for (const std::uint32_t id : ids) {
        const gka::RunResult result = flat_->join(id);
        out.rounds += result.rounds;
        out.retransmissions += result.retransmissions;
        all = all && result.success;
      }
      return all;
    }
    // One rekey round for the whole batch: queue everything, flush once.
    // enqueue_join may auto-flush at batch capacity; that still yields at
    // most ceil(|ids| / capacity) rekeys instead of |ids|.
    bool all = true;
    for (const std::uint32_t id : ids) {
      if (const auto summary = hier_->enqueue_join(id)) all = all && summary->success;
    }
    const cluster::EventSummary final_summary = hier_->flush();
    return all && final_summary.success;
  });
}

std::size_t ProtocolDriver::size() const {
  return flat_ != nullptr ? flat_->size() : hier_->size();
}

bool ProtocolDriver::contains(std::uint32_t id) const {
  return flat_ != nullptr ? flat_->contains(id) : hier_->contains(id);
}

std::vector<std::uint32_t> ProtocolDriver::member_ids() const {
  return flat_ != nullptr ? flat_->member_ids() : hier_->member_ids();
}

bool ProtocolDriver::agreed() const {
  if (flat_ != nullptr) return flat_->has_key();
  return hier_->all_members_agree();
}

energy::Ledger ProtocolDriver::member_ledger(std::uint32_t id) const {
  if (flat_ != nullptr) return flat_->ledger(id);
  return hier_->member_ledger(id);
}

std::size_t ProtocolDriver::cluster_count() const {
  return flat_ != nullptr ? 1 : hier_->cluster_count();
}

}  // namespace idgka::sim
