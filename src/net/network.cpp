#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chain/block_store.hpp"

namespace bng::net {

Network::Network(EventQueue& queue, Topology topology, const LatencyModel& latency,
                 LinkParams params, Rng& rng, const LatencyModel* intra)
    : queue_(queue),
      topology_(std::move(topology)),
      params_(params),
      block_store_(std::make_shared<chain::BlockStore>(topology_.num_nodes() + 1)),
      node_state_(std::make_shared<NodeStateArena>(topology_.num_nodes())) {
  const std::uint32_t n = topology_.num_nodes();
  handlers_.resize(n, nullptr);
  offline_.resize(n, false);

  // CSR rows, sorted by peer id so find_edge is a short binary search over
  // contiguous memory. Sorting (peer, position) keys gives each peers()
  // position its slot without a search.
  offset_.resize(n + 1, 0);
  for (NodeId v = 0; v < n; ++v)
    offset_[v + 1] = offset_[v] + static_cast<std::uint32_t>(topology_.peers(v).size());
  const std::uint32_t edges = offset_[n];
  row_sorted_.resize(edges);
  peer_edge_.resize(edges);
  std::vector<std::uint64_t> keys;
  for (NodeId v = 0; v < n; ++v) {
    const auto& adj = topology_.peers(v);
    keys.resize(adj.size());
    for (std::uint32_t i = 0; i < adj.size(); ++i)
      keys[i] = std::uint64_t{adj[i]} << 32 | i;
    std::sort(keys.begin(), keys.end());
    for (std::uint32_t k = 0; k < keys.size(); ++k) {
      row_sorted_[offset_[v] + k] = static_cast<NodeId>(keys[k] >> 32);
      peer_edge_[offset_[v] + static_cast<std::uint32_t>(keys[k])] = offset_[v] + k;
    }
  }
  latency_.resize(edges, 0);
  busy_until_.resize(edges, 0);
  fifo_of_.resize(edges, kNoFifo);
  blocked_.resize(edges, 0);
  state_.resize(edges, kIdle);
  last_arrival_.resize(edges, 0);
  skip_seq_.resize(edges, 0);

  // The reverse of every directed edge, in one pass: visiting the nodes v in
  // ascending order, the edges (v, u) arrive at each row u in its sorted
  // order, so one cursor per row names the slot of (u, v).
  std::vector<std::uint32_t> reverse(edges);
  std::vector<std::uint32_t> cursor(offset_.begin(), offset_.end() - 1);
  for (NodeId v = 0; v < n; ++v)
    for (std::uint32_t e = offset_[v]; e < offset_[v + 1]; ++e)
      reverse[e] = cursor[row_sorted_[e]]++;

  // Draw a symmetric latency per undirected edge, once, like the paper's
  // fixed per-pair assignment. Iteration order matches the pre-CSR
  // implementation so a given rng yields the identical assignment.
  for (NodeId a = 0; a < n; ++a) {
    const auto& adj = topology_.peers(a);
    for (std::uint32_t i = 0; i < adj.size(); ++i) {
      const NodeId b = adj[i];
      if (a < b) {
        // Clustered overlays give same-cluster edges the short-haul model;
        // with intra unset this selects `latency` unconditionally and the
        // draw sequence matches the flat implementation exactly.
        const LatencyModel& model =
            (intra != nullptr && topology_.cluster_of(a) == topology_.cluster_of(b))
                ? *intra
                : latency;
        const Seconds sample = model.sample(rng);
        const std::uint32_t e = peer_edge_[offset_[a] + i];
        latency_[e] = sample;
        latency_[reverse[e]] = sample;
      }
    }
  }
}

std::uint32_t Network::find_edge(NodeId from, NodeId to) const {
  if (from >= topology_.num_nodes()) return kNoEdge;
  const std::uint32_t lo = offset_[from];
  const std::uint32_t hi = offset_[from + 1];
  // Rows are short (min_degree ~5, so ~10 on average): a linear scan over
  // one or two cache lines beats a branchy binary search.
  if (hi - lo <= 32) {
    for (std::uint32_t i = lo; i < hi; ++i) {
      if (row_sorted_[i] == to) return i;
    }
    return kNoEdge;
  }
  const auto row_begin = row_sorted_.begin() + lo;
  const auto row_end = row_sorted_.begin() + hi;
  const auto it = std::lower_bound(row_begin, row_end, to);
  if (it == row_end || *it != to) return kNoEdge;
  return static_cast<std::uint32_t>(it - row_sorted_.begin());
}

void Network::attach(NodeId node, INode* handler) {
  if (node >= handlers_.size()) throw std::out_of_range("Network::attach: bad node id");
  handlers_[node] = handler;
}

Network::Link Network::link(NodeId from, NodeId to) const {
  const std::uint32_t e = find_edge(from, to);
  if (e == kNoEdge) throw std::invalid_argument("Network: nodes are not neighbours");
  return {from, to, e};
}

Seconds Network::edge_latency(NodeId a, NodeId b) const {
  const std::uint32_t e = find_edge(a, b);
  if (e == kNoEdge) throw std::invalid_argument("Network: no such edge");
  return latency_[e];
}

inline Seconds Network::charge(std::uint32_t e, std::uint32_t payload_bytes,
                               std::uint8_t kind) {
  const std::size_t wire_bytes = payload_bytes + params_.per_message_overhead_bytes;
  bytes_sent_ += wire_bytes;
  ++messages_sent_;
  ++sent_by_kind_[kind];

  // Store-and-forward over a serialized directed link.
  const Seconds transfer = static_cast<double>(wire_bytes) * 8.0 / params_.bandwidth_bps;
  const Seconds start = std::max(queue_.now(), busy_until_[e]);
  const Seconds done_sending = start + transfer;
  busy_until_[e] = done_sending;
  return done_sending + latency_[e];
}

inline bool Network::link_idle(const Link& l) {
  if (state_[l.edge] == kSkipped) {
    if (!queue_.passed(last_arrival_[l.edge], skip_seq_[l.edge])) schedule_skipped(l);
    else state_[l.edge] = kIdle;  // the skipped delivery would have run already
  }
  return state_[l.edge] == kIdle;
}

void Network::schedule_skipped(const Link& l) {
  // The skipped delivery gets its event at its place, and re-arms the link.
  queue_.schedule_reserved(last_arrival_[l.edge], skip_seq_[l.edge],
                           DeliverDirect{this, l, Message{}});
  state_[l.edge] = kDirect;
  ++active_links_;
  ++in_flight_;
  --deliveries_elided_;
}

inline void Network::enqueue(std::uint32_t e, Seconds arrival, Message msg) {
  // A link delivers in order. With constant latency arrivals are naturally
  // monotone; a mid-flight latency *decrease* (a healing fault window) would
  // let a later message compute an earlier arrival, so clamp to the link's
  // latest arrival — head-of-line blocking, exactly what store-and-forward
  // does.
  arrival = std::max(arrival, last_arrival_[e]);
  last_arrival_[e] = arrival;
  ++in_flight_;
  // A link's first queueing gives it a FIFO of its own, kept for the run.
  std::uint32_t& fifo = fifo_of_[e];
  if (fifo == kNoFifo) {
    fifo = static_cast<std::uint32_t>(fifos_.size());
    fifos_.emplace_back();
  }
  fifos_[fifo].q.push_back(InFlight{arrival, msg});
  state_[e] |= kQueued;
}

void Network::send(Link l, Message msg) {
  if (msg.kind == 0 || msg.kind >= kMessageKinds)
    throw std::invalid_argument("Network::send: message kind out of range");
  if (offline_[l.from] || offline_[l.to] || blocked_[l.edge] != 0) return;
  const Seconds arrival = charge(l.edge, msg.wire_size, msg.kind);

  // Event train: only the idle->busy transition touches the event queue; a
  // busy link just grows its FIFO (delivery re-arms on pop).
  if (!link_idle(l)) {
    enqueue(l.edge, arrival, msg);
    return;
  }
  // Idle-link fast path: no FIFO round-trip — the delivery event carries
  // the message. Scheduled at the same time with the same seq the
  // FIFO-head event would have had, so runs replay identically.
  ++in_flight_;
  ++active_links_;
  state_[l.edge] = kDirect;
  last_arrival_[l.edge] = arrival;
  queue_.schedule_at(arrival, DeliverDirect{this, l, msg});
}

void Network::send_ignored(Link l, std::uint32_t wire_size) {
  if (offline_[l.from] || offline_[l.to] || blocked_[l.edge] != 0) return;
  const Seconds arrival = charge(l.edge, wire_size, 0);
  if (!link_idle(l)) {
    enqueue(l.edge, arrival, Message{0, 0, wire_size});
    return;
  }
  // Nothing to deliver and nothing queued behind it: hold the delivery's
  // place in the event order, schedule nothing.
  state_[l.edge] = kSkipped;
  last_arrival_[l.edge] = arrival;
  skip_seq_[l.edge] = queue_.reserve_seq(arrival);
  ++deliveries_elided_;
}

inline void Network::dispatch(NodeId from, NodeId to, Message msg) {
  if (msg.kind == 0) return;  // a send_ignored message
  if (offline_[to]) return;
  INode* handler = handlers_[to];
  if (handler == nullptr) throw std::logic_error("Network: message for unattached node");
  handler->on_message(from, msg);
}

void Network::deliver_direct(Link l, Message msg) {
  --in_flight_;
  ++direct_deliveries_;
  std::uint8_t& state = state_[l.edge];
  state &= static_cast<std::uint8_t>(~kDirect);
  if (state == kIdle) {
    --active_links_;
  } else {
    // Messages queued up behind the direct flight: re-arm before delivering
    // (see deliver_head for the ordering discipline).
    const LinkFifo& f = fifos_[fifo_of_[l.edge]];
    queue_.schedule_at(f.q[f.head].arrival, DeliverHead{this, l});
  }
  dispatch(l.from, l.to, msg);
}

void Network::deliver_head(Link l) {
  LinkFifo& f = fifos_[fifo_of_[l.edge]];
  const Message msg = f.q[f.head].msg;
  ++f.head;
  --in_flight_;
  if (f.empty()) {
    f.q.clear();
    f.head = 0;
    state_[l.edge] = kIdle;
    --active_links_;
  } else {
    // Compact the delivered prefix once it dominates the vector, so a link
    // that never fully drains holds O(in-flight) slots, not O(total ever
    // sent). Amortized O(1) per message.
    if (f.head >= 64 && f.head * 2 >= f.q.size()) {
      f.q.erase(f.q.begin(), f.q.begin() + f.head);
      f.head = 0;
    }
    // Re-arm before delivering: keeps this link's next delivery ahead (in
    // schedule order) of any events the handler schedules now, matching
    // the per-message scheduling the train replaced.
    queue_.schedule_at(f.q[f.head].arrival, DeliverHead{this, l});
  }
  // `f` is not used past here: a send from the handler may grow fifos_.
  dispatch(l.from, l.to, msg);
}

void Network::set_offline(NodeId node, bool offline) {
  if (node >= offline_.size()) throw std::out_of_range("Network::set_offline: bad node id");
  offline_[node] = offline;
}

bool Network::is_offline(NodeId node) const {
  if (node >= offline_.size()) throw std::out_of_range("Network::is_offline: bad node id");
  return offline_[node];
}

void Network::set_edge_blocked(NodeId a, NodeId b, bool blocked) {
  const std::uint32_t e = find_edge(a, b);
  if (e == kNoEdge) throw std::invalid_argument("Network: no such edge");
  if (blocked) {
    ++blocked_[e];
  } else {
    if (blocked_[e] == 0) throw std::logic_error("Network: unblocking an unblocked edge");
    --blocked_[e];
  }
}

bool Network::edge_blocked(NodeId a, NodeId b) const {
  const std::uint32_t e = find_edge(a, b);
  if (e == kNoEdge) throw std::invalid_argument("Network: no such edge");
  return blocked_[e] != 0;
}

void Network::set_partition(const std::vector<NodeId>& group, bool active) {
  std::vector<bool> in_group(topology_.num_nodes(), false);
  for (NodeId v : group) {
    if (v >= topology_.num_nodes())
      throw std::invalid_argument("Network::set_partition: unknown node");
    in_group[v] = true;
  }
  for (NodeId a = 0; a < topology_.num_nodes(); ++a) {
    if (!in_group[a]) continue;
    for (NodeId b : topology_.peers(a)) {
      if (in_group[b]) continue;
      set_edge_blocked(a, b, active);
      set_edge_blocked(b, a, active);
    }
  }
}

void Network::set_eclipsed(NodeId node, bool eclipsed) {
  if (node >= topology_.num_nodes())
    throw std::invalid_argument("Network::set_eclipsed: unknown node");
  for (NodeId peer : topology_.peers(node)) {
    set_edge_blocked(node, peer, eclipsed);
    set_edge_blocked(peer, node, eclipsed);
  }
}

void Network::add_edge_latency(NodeId a, NodeId b, Seconds delta) {
  const std::uint32_t e1 = find_edge(a, b);
  const std::uint32_t e2 = find_edge(b, a);
  if (e1 == kNoEdge || e2 == kNoEdge)
    throw std::invalid_argument("Network: no such edge");
  // Validate before writing: a rejected mutation must not leave one (or
  // both) directions changed.
  if (latency_[e1] + delta < 0 || latency_[e2] + delta < 0)
    throw std::invalid_argument("Network: edge latency would go negative");
  latency_[e1] += delta;
  latency_[e2] += delta;
}

}  // namespace bng::net
