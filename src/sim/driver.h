// Timed protocol driver: runs GKA sessions over the discrete-event engine.
//
// The driver attaches to a flat gka::GroupSession or a hierarchical
// cluster::HierarchicalSession and installs, on every broadcast network the
// session touches (now and in the future — head-tier rebuilds, cluster
// splits), three hooks:
//
//   * a Transport that prices each (message, receiver) copy through the
//     LinkModel and posts its arrival through the engine::Executor (the
//     event is attributed to the posting ProtocolRun for frame-arrival
//     resumption) — or records the drop. The network itself is lossless,
//     so this link is where every lost copy comes from;
//   * a RoundBarrier that yields the hosting ProtocolRun for one round
//     timeout between a reliable round's transmit and drain phases, so the
//     protocols run against timeouts and their fixed retransmission budget
//     (gka::kMaxRetransmitAttempts) while other groups' runs interleave on
//     the same clock;
//   * sniffer/drop observers that accumulate bits-on-air and lost copies
//     across the whole run, surviving internal network teardown.
//
// Execution is event-driven end to end: every membership operation is an
// engine::ProtocolRun. Called from a plain thread, the driver submits the
// operation to its executor and drains it — the call stays synchronous and
// virtual time advances inside it, exactly the seed behaviour. Called from
// inside a run body (a scenario's group script), the operation executes
// inline on the calling run, yielding at each await so the executor can
// interleave many groups' rounds. The OpOutcome captures the operation's
// start/end timestamps — the key-agreement latency the scenario metrics
// aggregate.
//
// One driver serves one session and must only be used from one run (or the
// host thread) at a time; concurrent groups get one driver each, sharing an
// Executor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/hierarchical_session.h"
#include "engine/executor.h"
#include "gka/session.h"
#include "sim/link.h"
#include "sim/scheduler.h"

namespace idgka::sim {

struct DriverConfig {
  LinkConfig link;
  /// Virtual time one reliable-round attempt waits before the senders
  /// declare the round lossy and retransmit. Must exceed the worst-case
  /// copy delay (serialization + latency + jitter) or every round times
  /// out at least once.
  SimTime round_timeout_us = 60'000;
  /// Opt-in frame-arrival resumption: a round await returns as soon as the
  /// last in-flight copy this run posted has landed (and an incomplete
  /// round retransmits immediately on a quiet channel) instead of always
  /// burning the full round timeout. Same protocol outcomes — loss is
  /// drawn at transmit time — but latencies become arrival-true rather
  /// than timeout-quantized, so it is off by default to preserve the
  /// seed's timing model.
  bool resume_on_arrival = false;
};

/// Outcome of one timed membership operation.
struct OpOutcome {
  bool success = false;
  SimTime start_us = 0;
  SimTime end_us = 0;
  /// Communication rounds / extra attempts (flat sessions only; the
  /// hierarchy aggregates many leaf runs and reports 0 here).
  int rounds = 0;
  int retransmissions = 0;

  [[nodiscard]] SimTime latency_us() const { return end_us - start_us; }
};

class ProtocolDriver {
 public:
  /// Standalone driver: owns a private engine::Executor over `scheduler`.
  ProtocolDriver(Scheduler& scheduler, const DriverConfig& config, std::uint64_t seed);
  /// Concurrent-group driver: shares `executor` (and its scheduler) with
  /// other drivers; membership operations invoked from inside that
  /// executor's run bodies interleave with every other registered run.
  ProtocolDriver(engine::Executor& executor, const DriverConfig& config,
                 std::uint64_t seed);

  /// Attaches a session (exactly one, before any traffic flows). The
  /// driver keeps a pointer to `session` for its lifetime: the session
  /// must outlive the driver and must not be moved-from while attached
  /// (GroupSession is movable — hand the driver its final home).
  void attach(gka::GroupSession& session);
  void attach(cluster::HierarchicalSession& session);

  // --- Timed membership operations ---
  OpOutcome form();
  OpOutcome join(std::uint32_t id);
  OpOutcome leave(std::uint32_t id);
  /// Batch departure; one rekey round for the whole set.
  OpOutcome partition(const std::vector<std::uint32_t>& ids);
  /// Batch (re-)admission. Hierarchical sessions pay one rekey per 32 ids;
  /// flat sessions join sequentially inside one timed span.
  OpOutcome admit(const std::vector<std::uint32_t>& ids);

  // --- Session pass-throughs ---
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool contains(std::uint32_t id) const;
  [[nodiscard]] std::vector<std::uint32_t> member_ids() const;
  /// Every current member holds the (same) group key.
  [[nodiscard]] bool agreed() const;
  /// Lifetime ledger of a current member (leaf + head tier + retired
  /// tenures under the hierarchy; current tenure only under a flat
  /// session, whose departed ledgers are dropped — the BatteryBank banks
  /// the difference on rejoin).
  [[nodiscard]] energy::Ledger member_ledger(std::uint32_t id) const;
  [[nodiscard]] std::size_t cluster_count() const;

  // --- Cumulative on-air accounting ---
  [[nodiscard]] std::uint64_t frames_on_air() const { return frames_; }
  /// Paper-accounted bits (declared override or size model).
  [[nodiscard]] std::uint64_t bits_on_air() const { return bits_; }
  /// Codec-true encoded frame bits actually serialized on air.
  [[nodiscard]] std::uint64_t encoded_bits_on_air() const { return encoded_bits_; }
  [[nodiscard]] std::uint64_t copies_dropped() const { return drop_copies_; }
  [[nodiscard]] std::uint64_t bits_dropped() const { return drop_bits_; }
  [[nodiscard]] const LinkModel& link() const { return link_; }
  [[nodiscard]] const DriverConfig& config() const { return cfg_; }
  [[nodiscard]] engine::Executor& executor() { return *exec_; }

 private:
  void install(net::Network& network);
  /// `label` must be a string literal (stored by pointer in trace events).
  OpOutcome timed(const char* label, const std::function<bool(OpOutcome&)>& op);

  engine::Executor* exec_ = nullptr;
  DriverConfig cfg_;
  LinkModel link_;
  gka::GroupSession* flat_ = nullptr;
  cluster::HierarchicalSession* hier_ = nullptr;

  std::uint64_t frames_ = 0;
  std::uint64_t bits_ = 0;
  std::uint64_t encoded_bits_ = 0;
  std::uint64_t drop_copies_ = 0;
  std::uint64_t drop_bits_ = 0;

  /// Declared last: a standalone driver's executor must be destroyed first
  /// (its teardown aborts any still-parked run, which may unwind through
  /// frames referencing link_/cfg_ above).
  std::unique_ptr<engine::Executor> owned_exec_;
};

}  // namespace idgka::sim
