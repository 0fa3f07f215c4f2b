// In-process simulation of a broadcast wireless network.
//
// The paper's setting: nodes share a broadcast medium; every broadcast is
// received by every other registered group member, and the per-node radio
// spends transmit energy once per message and receive energy once per
// received message. The simulator is round-based (protocols drain inboxes
// between rounds) and counts bits per node for the energy model. On its
// own the medium is lossless: every lost copy comes from a Transport (the
// sim layer's link model) and is accounted through record_drop().
//
// What moves through the medium is *bytes*, not typed objects: broadcast()
// serializes the message exactly once through the canonical codec
// (src/wire) and fans the same immutable ref-counted Frame out to every
// receiver — an O(1) buffer reference per receiver, not a payload copy.
// Inboxes hold frames; drain() decodes lazily at the receiver, and a frame
// that fails the strict decode (corrupted on air) is discarded and counted
// like a real radio discards a frame with a bad checksum — after the rx
// energy was already spent. The adversary and observer hooks work at the
// same level: a tamper hook rewrites or jams the bytes of one delivered
// copy, a sniffer sees every transmitted frame; either decodes with the
// public codec when it needs fields.
//
// The discrete-event layer (src/sim) turns the same network into a timed,
// lossy medium without touching protocol code: a Transport hook prices
// every (frame, receiver) copy through a link model and later re-injects
// it via deposit() or accounts it via record_drop(), a RoundBarrier hook
// advances the virtual clock between a round's transmit and drain phases,
// and a DropObserver sees every lost copy.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/message.h"
#include "wire/codec.h"

namespace idgka::net {

/// Per-node traffic counters. tx/rx_bits are paper-accounted sizes
/// (declared_bits override or the Payload size model); the _encoded_
/// variants are the codec-true frame sizes actually on air.
struct TrafficStats {
  std::uint64_t tx_messages = 0;
  std::uint64_t rx_messages = 0;
  std::uint64_t tx_bits = 0;
  std::uint64_t rx_bits = 0;
  std::uint64_t tx_encoded_bits = 0;
  std::uint64_t rx_encoded_bits = 0;
  /// Copies addressed to this node that were lost (a Transport's
  /// record_drop, or arrival after the node departed).
  std::uint64_t dropped_messages = 0;
  /// Received frames (rx charged) that failed the strict decode — bit
  /// flips or truncation by a byte-level adversary.
  std::uint64_t corrupted_frames = 0;
};

/// Lossless broadcast network with per-node frame inboxes; loss enters
/// only through an installed Transport.
class Network {
 public:
  /// Registers a node; must be called before it can send or receive.
  void add_node(std::uint32_t id);
  /// Deregisters a node, discarding its pending inbox and traffic counters
  /// (departed members must not accumulate state for the lifetime of a
  /// long-churn simulation). No-op when the node is unknown.
  void remove_node(std::uint32_t id);
  [[nodiscard]] bool has_node(std::uint32_t id) const;
  /// Number of currently registered nodes.
  [[nodiscard]] std::size_t node_count() const { return inboxes_.size(); }

  /// Broadcast to an explicit receiver group (paper protocols broadcast to
  /// the current group or subgroup). The message is encoded once; every
  /// receiver shares the same frame buffer. Self-delivery never happens: a
  /// sender that appears in `group` is skipped and is charged tx exactly
  /// once, rx never. Without a Transport an unknown receiver in `group`
  /// throws std::invalid_argument; with one installed the copy is handed
  /// off instead and a receiver that departs while it is in flight is
  /// recorded as a drop at arrival time.
  void broadcast(const Message& msg, const std::vector<std::uint32_t>& group);

  /// Point-to-point transmission (e.g. Join Round 3 Un -> Un+1).
  void unicast(Message msg);

  /// Removes and decodes all pending frames for `node`, in arrival order.
  /// Frames that fail the strict decode are dropped from the result and
  /// counted in `corrupted_frames` / corrupted().
  [[nodiscard]] std::vector<Message> drain(std::uint32_t node);
  /// Byte-level variant: removes and returns the raw frames undecoded.
  [[nodiscard]] std::vector<wire::Frame> drain_frames(std::uint32_t node);

  [[nodiscard]] const TrafficStats& stats(std::uint32_t node) const;
  [[nodiscard]] TrafficStats total_stats() const;
  /// Total lost copies so far (record_drop + arrivals at departed nodes).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Total received frames discarded by the strict decoder.
  [[nodiscard]] std::uint64_t corrupted() const { return corrupted_; }

  // --- Adversarial/debug hooks (byte level, the level the radio works at) ---

  /// Byte-level adversary applied to every delivered copy: may rewrite the
  /// frame bytes in place (bit flips, truncation, extension) or return
  /// false to suppress delivery (jamming). Charged rx is always based on
  /// the original frame as transmitted, never the mutated bytes. A field-
  /// level adversary decodes the bytes itself with the public codec.
  using FrameTamperHook =
      std::function<bool(std::vector<std::uint8_t>& bytes, std::uint32_t receiver)>;
  void set_frame_tamper_hook(FrameTamperHook hook) { frame_tamper_ = std::move(hook); }

  /// Passive byte-level observer of every transmitted frame (eavesdropper
  /// on the air interface); Frame::sender() or wire::decode gives the
  /// typed view.
  using FrameSniffer = std::function<void(const wire::Frame&)>;
  void set_frame_sniffer(FrameSniffer sniffer) { frame_sniffer_ = std::move(sniffer); }

  // --- Timed-delivery hooks (src/sim) ---

  /// Intercepts every (frame, receiver) copy instead of immediate delivery.
  /// The transport owns the copy's fate: it must eventually call deposit()
  /// (arrival) or record_drop() (loss). Senders are charged tx at hand-off
  /// time as usual. Holding the frame is an O(1) buffer reference.
  using Transport = std::function<void(const wire::Frame&, std::uint32_t receiver)>;
  void set_transport(Transport transport) { transport_ = std::move(transport); }

  /// Injects a copy that arrives "now" on the timed path: charges rx, runs
  /// the tamper hook and enqueues. A receiver that departed while the copy
  /// was in flight is recorded as a drop instead of throwing.
  void deposit(const wire::Frame& frame, std::uint32_t to);

  /// Accounts one lost (frame, receiver) copy: bumps the global counter,
  /// the receiver's `dropped_messages` (when still registered) and notifies
  /// the drop observer. The sim layer calls this for every link-model loss
  /// so drop accounting lives in one place.
  void record_drop(const wire::Frame& frame, std::uint32_t to);

  /// Observer of every lost copy (frame, intended receiver).
  using DropObserver = std::function<void(const wire::Frame&, std::uint32_t receiver)>;
  void set_drop_observer(DropObserver observer) { drop_observer_ = std::move(observer); }

  /// Invoked by reliable-round loops (gka::exchange_round, the cluster
  /// rekey distribution) between transmitting and draining. The sim layer
  /// installs a barrier that yields the hosting engine::ProtocolRun for one
  /// round timeout (falling back to advancing the virtual clock directly on
  /// a non-engine thread) so in-flight deposits land; without one, rounds
  /// stay lockstep.
  using RoundBarrier = std::function<void()>;
  void set_round_barrier(RoundBarrier barrier) { round_barrier_ = std::move(barrier); }
  void await_delivery() {
    if (round_barrier_) round_barrier_();
  }

 private:
  wire::Frame encode_and_charge(const Message& msg);
  void deliver(const wire::Frame& frame, std::uint32_t to);
  void enqueue(std::vector<wire::Frame>& inbox, const wire::Frame& frame, std::uint32_t to);

  std::map<std::uint32_t, std::vector<wire::Frame>> inboxes_;
  std::map<std::uint32_t, TrafficStats> stats_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  FrameTamperHook frame_tamper_;
  FrameSniffer frame_sniffer_;
  Transport transport_;
  DropObserver drop_observer_;
  RoundBarrier round_barrier_;
};

}  // namespace idgka::net
