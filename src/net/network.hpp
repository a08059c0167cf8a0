// Message transport over the simulated overlay.
//
// Models the paper's emulated network (§7): per-pair latency drawn from an
// empirical histogram and ~100 kbit/s bandwidth between each pair of nodes.
// Transfers are store-and-forward: a link serializes messages, so a large
// block occupies the link for size/bandwidth seconds before the propagation
// latency even begins — this is what creates the linear size/latency
// relation of Fig 7 and the fork pressure of Fig 8b.
//
// A message is a 12-byte value, so a send allocates nothing. Fast-path design: the per-edge state (latency, link-busy horizon, in-flight
// FIFO) lives in CSR-style flat arrays indexed by a directed-edge slot
// resolved once at construction (peer_edges(), so a broadcast never searches
// a row), and whether a link is idle is one byte — no hash maps anywhere on
// the message path. Many links never queue a message behind another (of
// the perfbench inputs' links, 0.5-15% ever do on bitcoin_5k, 17-41% on
// bitcoin_fig7), so an edge holds a 4-byte index into a pool of FIFOs that
// grows when a link first queues.
//
// Per-link event trains: a store-and-forward link delivers in order, so each
// directed edge keeps one FIFO of in-flight messages and at most ONE
// scheduled delivery event (for the head's arrival). Sending onto a busy
// link is a FIFO push with no event-queue traffic; the delivery callback is
// a trivially-copyable {Network*, link} value that re-arms itself for the
// next queued message. The pending-event set is O(active links), not
// O(in-flight messages) — under a gossip burst that is an order of magnitude
// smaller.
//
// Idle-link direct delivery on top of the train (observationally identical
// to the one-event-per-message schedule, so digests don't move): a send onto
// an idle link carries the message inside its delivery event (SmallFn inline
// capture) instead of round-tripping through the FIFO — the common case in
// gossip, where most sends hit an idle link.
//
// Prefetch hook: both delivery callables declare `prefetch() const`
// (common/small_fn.hpp), which the event loop calls on the next event while
// the one before it runs. It prefetches the receiver's hot span — the first
// INode::kHotBytes bytes of its object, where a node keeps what a delivery
// reads (protocol/base_node.hpp) — and the link's state byte. At 5,000
// nodes the node objects outgrow the L2 cache, and each delivery would
// otherwise miss on its receiver. A receiver not attached yet is skipped.
// The hint changes no value, so a run is the same with or without it.
//
// Ignored sends: most invs reach a peer that has already seen the block and
// drops them on arrival. send_ignored charges such a message like any other
// (bytes, link occupancy, arrival) but delivers nothing. On an idle link its
// delivery gets no event at all — the queue reserves the (arrival, seq) place
// the event would have had (EventQueue::reserve_seq). If a later send queues
// behind it before that place passes, the delivery is scheduled at the
// reserved place, so the later message re-arms the link at the same moment
// as before; on a busy link it rides the FIFO as a kind-0 entry. Either way
// every other event keeps its exact (time, seq), and the runs replay
// bit-identically with or without the skip.
//
// The Network also owns the deployment-wide chain::BlockStore: it is the one
// object every protocol node of a deployment shares, so it is the natural
// home for the Hash256 -> BlockId assignment that block trees, gossip sets
// and wire messages key their hot state by (see common/intern.hpp), and for
// the chain facts, bodies and per-node views (chain/block_store.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/intern.hpp"
#include "common/node_state.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/event_queue.hpp"
#include "net/latency_model.hpp"
#include "net/topology.hpp"

namespace bng::chain {
class BlockStore;
}  // namespace bng::chain

namespace bng::net {

/// Kinds 1 .. kMessageKinds - 1 belong to the protocol (protocol::MessageKind).
inline constexpr std::size_t kMessageKinds = 4;

/// A message on the wire, a plain value.
struct Message {
  /// Dispatch tag. Kind 0 marks a send_ignored entry: never dispatched.
  std::uint8_t kind = 0;
  std::uint32_t id = 0;         ///< the interned BlockId, for the protocol
  std::uint32_t wire_size = 0;  ///< serialized bytes; drives the bandwidth model
};
static_assert(sizeof(Message) == 12 && std::is_trivially_copyable_v<Message>);

/// Interface implemented by protocol nodes.
class INode {
 public:
  /// The hot span: a delivery prefetches this many bytes of its receiver,
  /// from the INode's address. An implementation keeps the fields
  /// on_message reads there.
  static constexpr std::size_t kHotBytes = 256;

  virtual ~INode() = default;
  virtual void on_message(NodeId from, const Message& msg) = 0;
};

struct LinkParams {
  /// Paper §7: "The bandwidth is set to about 100kbit/sec among each pair."
  double bandwidth_bps = 100'000.0;
  /// Fixed per-message overhead (headers, framing).
  std::size_t per_message_overhead_bytes = 40;
};

class Network {
 public:
  /// `intra`, when set, is the latency model for edges whose endpoints share
  /// a topology cluster (Topology::clustered); `latency` then covers only
  /// the cross-cluster trunks. Null keeps the flat single-model assignment
  /// (and, for a given rng, the byte-identical draw sequence). Move the
  /// topology in: a deployment's is the Network's alone.
  Network(EventQueue& queue, Topology topology, const LatencyModel& latency,
          LinkParams params, Rng& rng, const LatencyModel* intra = nullptr);

  /// A directed link: its endpoints and its edge slot.
  struct Link {
    NodeId from;
    NodeId to;
    std::uint32_t edge;
  };

  /// Attach the protocol object for `node`. Must be called for every node
  /// before any message is delivered to it.
  void attach(NodeId node, INode* handler);

  /// Send a message from `from` to direct neighbour `to`. Throws if the edge
  /// does not exist or the kind is not one of 1 .. kMessageKinds - 1.
  void send(NodeId from, NodeId to, Message msg) { send(link(from, to), msg); }
  void send(Link link, Message msg);

  /// Send a `wire_size`-byte message that the receiver is known to ignore on
  /// arrival. It is charged and timed like send() — drop checks, counters,
  /// link occupancy, arrival — but handed to no one. On an idle link its
  /// delivery gets no event: the (arrival, seq) place is reserved, and only
  /// if a later send queues behind it before it passes is the event
  /// scheduled there. So every other event runs at the same (time, seq) as
  /// if the message had been sent and dropped by its receiver.
  void send_ignored(Link link, std::uint32_t wire_size);

  /// Throws if the edge does not exist.
  [[nodiscard]] Link link(NodeId from, NodeId to) const;

  /// Neighbours of `node`.
  [[nodiscard]] const std::vector<NodeId>& peers(NodeId node) const {
    return topology_.peers(node);
  }
  /// The edge slot of each of `node`'s links, in peers(node) order.
  [[nodiscard]] std::span<const std::uint32_t> peer_edges(NodeId node) const {
    return {peer_edge_.data() + offset_[node], peer_edge_.data() + offset_[node + 1]};
  }

  [[nodiscard]] std::uint32_t num_nodes() const { return topology_.num_nodes(); }
  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// The deployment-wide block store — block identities, chain facts, bodies
  /// and views — shared by every node of this deployment (trees, gossip
  /// sets, wire messages) and by the trace recorder's global tree. Node v's
  /// tree is view v; the global tree is view num_nodes().
  [[nodiscard]] const std::shared_ptr<chain::BlockStore>& block_store() const {
    return block_store_;
  }

  /// The deployment-wide gossip arena: per (block, node) known/requested
  /// bits, block-major, plus each node's CPU cursor (common/node_state.hpp).
  [[nodiscard]] const std::shared_ptr<NodeStateArena>& node_state() const {
    return node_state_;
  }

  /// One-way latency of the (a, b) edge; throws if absent.
  [[nodiscard]] Seconds edge_latency(NodeId a, NodeId b) const;

  /// Total bytes ever put on the wire (payload + overhead).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  /// Messages charged to links, by kind (0: send_ignored).
  [[nodiscard]] const std::array<std::uint64_t, kMessageKinds>& sent_by_kind() const {
    return sent_by_kind_;
  }

  /// Messages currently queued on links (sent, not yet delivered).
  [[nodiscard]] std::uint64_t messages_in_flight() const { return in_flight_; }
  /// Directed links with a delivery in flight == scheduled delivery events.
  [[nodiscard]] std::uint32_t active_links() const { return active_links_; }
  /// Deliveries that rode the idle-link fast path (message carried in the
  /// event, no FIFO round-trip).
  [[nodiscard]] std::uint64_t direct_deliveries() const { return direct_deliveries_; }
  /// send_ignored deliveries that never got an event.
  [[nodiscard]] std::uint64_t deliveries_elided() const { return deliveries_elided_; }

  /// Partition control (for churn / attack experiments): while a node is
  /// offline its inbound and outbound messages are dropped. Both throw
  /// std::out_of_range for an unknown node.
  void set_offline(NodeId node, bool offline);
  [[nodiscard]] bool is_offline(NodeId node) const;

  // --- Fault mechanism (net/fault_plan.hpp schedules the policy) ------------
  //
  // Faults are plain mutations of the per-edge state the send path already
  // reads: a blocked edge folds into the existing offline drop-check (one
  // fused predicate, no extra branch chain) and extra delay is added into
  // the edge's latency slot. With no faults configured the layer costs zero
  // events, zero allocations, and leaves the send path byte-identical.
  //
  // Block state is a per-edge depth counter so overlapping faults compose
  // (a partition plus an eclipse both covering an edge heal independently).
  // Blocking gates send() only: messages already on the link still arrive.

  /// Block/unblock the directed edge a -> b. Throws if the edge is absent.
  void set_edge_blocked(NodeId a, NodeId b, bool blocked);
  /// Block/unblock both directions between `group` and its complement.
  void set_partition(const std::vector<NodeId>& group, bool active);
  /// Block/unblock every edge incident to `node`, both directions.
  void set_eclipsed(NodeId node, bool eclipsed);
  /// Add `delta` (may be negative, to heal) to both directions' latency.
  void add_edge_latency(NodeId a, NodeId b, Seconds delta);

  [[nodiscard]] bool edge_blocked(NodeId a, NodeId b) const;

 private:
  static constexpr std::uint32_t kNoEdge = UINT32_MAX;
  static constexpr std::uint32_t kNoFifo = UINT32_MAX;
  static constexpr std::size_t kCacheLine = 64;

  /// A message riding a link, waiting for its arrival time.
  struct InFlight {
    Seconds arrival;
    Message msg;
  };

  /// Bits of a link's state byte; 0 is idle.
  enum : std::uint8_t {
    kIdle = 0,
    kDirect = 1,   ///< a DeliverDirect event is scheduled (the FIFO queues behind it)
    kSkipped = 2,  ///< a send_ignored delivery holds a reserved place; the FIFO is empty
    kQueued = 4,   ///< the FIFO is non-empty
  };

  /// A busy link's FIFO; `head` indexes the next message to deliver.
  struct LinkFifo {
    std::vector<InFlight> q;
    std::uint32_t head = 0;
    [[nodiscard]] bool empty() const { return head == q.size(); }
  };

  /// The scheduled per-link delivery callback.
  struct DeliverHead {
    Network* net;
    Link link;
    void operator()() const { net->deliver_head(link); }
    void prefetch() const { net->prefetch_delivery(link); }
  };

  /// Idle-link fast path: the message rides inside the event, not the FIFO.
  struct DeliverDirect {
    Network* net;
    Link link;
    Message msg;
    void operator()() const { net->deliver_direct(link, msg); }
    void prefetch() const { net->prefetch_delivery(link); }
  };
  static_assert(std::is_trivially_copyable_v<DeliverDirect>);  // SmallFn memcpys it

  // The send-path helpers are declared inline: send() and send_ignored()
  // share them, and left out of line they cost the real-send
  // micro-benchmarks (BM_Network*) 8-20%.

  /// Charge a send of `payload_bytes` of `kind` to `edge` (counters and link
  /// occupancy) and return its store-and-forward arrival time.
  inline Seconds charge(std::uint32_t edge, std::uint32_t payload_bytes, std::uint8_t kind);
  /// Whether a send finds the link with nothing in flight, after settling a
  /// reserved send_ignored place: a passed one frees the link, and one still
  /// ahead gets its event (schedule_skipped), so the send queues behind it.
  inline bool link_idle(const Link& link);
  void schedule_skipped(const Link& link);
  /// Queue a message behind the link's in-flight ones.
  inline void enqueue(std::uint32_t edge, Seconds arrival, Message msg);
  /// Deliver the FIFO head, re-arming the link for the message behind it.
  void deliver_head(Link link);
  void deliver_direct(Link link, Message msg);
  /// Hand one arrived message to the receiving node (offline drop here).
  inline void dispatch(NodeId from, NodeId to, Message msg);
  /// The delivery callables' prefetch hook: the receiver's hot span and the
  /// link's state byte.
  void prefetch_delivery(const Link& link) const {
    __builtin_prefetch(&state_[link.edge]);
    const INode* receiver = handlers_[link.to];
    if (receiver == nullptr) return;  // not attached yet
    const char* hot = reinterpret_cast<const char*>(receiver);
    for (std::size_t at = 0; at < INode::kHotBytes; at += kCacheLine)
      __builtin_prefetch(hot + at);
  }

  /// Directed-edge slot for (from, to): position of `to` in `from`'s sorted
  /// adjacency row, offset by the CSR row start. kNoEdge if absent.
  [[nodiscard]] std::uint32_t find_edge(NodeId from, NodeId to) const;

  EventQueue& queue_;
  Topology topology_;
  LinkParams params_;
  std::shared_ptr<chain::BlockStore> block_store_;
  std::shared_ptr<NodeStateArena> node_state_;
  std::vector<INode*> handlers_;
  std::vector<bool> offline_;

  // CSR adjacency: row of node v is row_sorted_[offset_[v] .. offset_[v+1]),
  // sorted by peer id for binary search. Iteration order of neighbours is
  // still Topology's original order (peers()); only lookups use these rows.
  std::vector<std::uint32_t> offset_;      // num_nodes + 1
  std::vector<NodeId> row_sorted_;         // peer id per directed-edge slot
  std::vector<std::uint32_t> peer_edge_;   // edge slot per peers() position
  std::vector<Seconds> latency_;           // per directed-edge slot, symmetric
  std::vector<Seconds> busy_until_;        // per directed-edge slot (directed)
  std::vector<std::uint32_t> fifo_of_;     // per directed-edge slot: index into fifos_
  std::vector<LinkFifo> fifos_;            // one per link that has ever queued
  std::vector<std::uint8_t> blocked_;      // per directed-edge fault depth
  std::vector<std::uint8_t> state_;        // link state bits (kDirect, ...)
  std::vector<Seconds> last_arrival_;      // arrival of the edge's latest send
  std::vector<std::uint64_t> skip_seq_;    // reserved seq while kSkipped

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::array<std::uint64_t, kMessageKinds> sent_by_kind_{};
  std::uint64_t in_flight_ = 0;
  std::uint32_t active_links_ = 0;
  std::uint64_t direct_deliveries_ = 0;
  std::uint64_t deliveries_elided_ = 0;
};

}  // namespace bng::net
