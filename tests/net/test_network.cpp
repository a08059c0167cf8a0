#include "net/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace bng::net {
namespace {

/// A `size`-byte message whose id carries `tag`.
Message test_message(std::uint32_t size, int tag) {
  return {1, static_cast<std::uint32_t>(tag), size};
}
int tag_of(const Message& msg) { return static_cast<int>(msg.id); }

struct Recorder : INode {
  struct Received {
    NodeId from;
    int tag;
    Seconds at;
  };
  std::vector<Received> received;
  EventQueue* queue = nullptr;

  void on_message(NodeId from, const Message& msg) override {
    received.push_back({from, tag_of(msg), queue->now()});
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(Topology::line(3)),
        rng_(1),
        net_(queue_, topo_, LatencyModel::constant(0.1), LinkParams{100'000.0, 0}, rng_) {
    for (NodeId i = 0; i < 3; ++i) {
      nodes_.emplace_back();
    }
    for (NodeId i = 0; i < 3; ++i) {
      nodes_[i].queue = &queue_;
      net_.attach(i, &nodes_[i]);
    }
  }

  EventQueue queue_;
  Topology topo_;
  Rng rng_;
  Network net_;
  std::deque<Recorder> nodes_;
};

TEST_F(NetworkTest, DeliversWithLatencyPlusTransfer) {
  // 1250 bytes at 100 kbit/s = 0.1 s transfer, + 0.1 s latency.
  net_.send(0, 1, test_message(1250, 7));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), 1u);
  EXPECT_EQ(nodes_[1].received[0].from, 0u);
  EXPECT_EQ(nodes_[1].received[0].tag, 7);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
}

TEST_F(NetworkTest, NonNeighborSendThrows) {
  EXPECT_THROW(net_.send(0, 2, test_message(10, 0)), std::invalid_argument);
}

TEST_F(NetworkTest, LinkSerializesBackToBackMessages) {
  // Two 1250-byte messages on the same link: the second waits for the first.
  net_.send(0, 1, test_message(1250, 1));
  net_.send(0, 1, test_message(1250, 2));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), 2u);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[1].received[1].at, 0.3, 1e-9);  // queued behind the first
  EXPECT_EQ(nodes_[1].received[1].tag, 2);
}

TEST_F(NetworkTest, OppositeDirectionsDoNotContend) {
  net_.send(0, 1, test_message(1250, 1));
  net_.send(1, 0, test_message(1250, 2));
  queue_.run_all();
  ASSERT_EQ(nodes_[0].received.size(), 1u);
  ASSERT_EQ(nodes_[1].received.size(), 1u);
  EXPECT_NEAR(nodes_[0].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
}

TEST_F(NetworkTest, DistinctLinksDoNotContend) {
  net_.send(1, 0, test_message(1250, 1));
  net_.send(1, 2, test_message(1250, 2));
  queue_.run_all();
  EXPECT_NEAR(nodes_[0].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[2].received[0].at, 0.2, 1e-9);
}

TEST_F(NetworkTest, LargerMessagesTakeProportionallyLonger) {
  net_.send(0, 1, test_message(12500, 1));  // 1 s transfer
  queue_.run_all();
  EXPECT_NEAR(nodes_[1].received[0].at, 1.1, 1e-9);
}

TEST_F(NetworkTest, PerMessageOverheadCounted) {
  Rng rng(2);
  Network overhead_net(queue_, topo_, LatencyModel::constant(0.0),
                       LinkParams{100'000.0, 1250}, rng);
  Recorder sink;
  sink.queue = &queue_;
  overhead_net.attach(0, &sink);
  overhead_net.attach(1, &sink);
  overhead_net.send(0, 1, test_message(0, 1));  // only overhead
  queue_.run_all();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_NEAR(sink.received[0].at, 0.1, 1e-9);
}

TEST_F(NetworkTest, OfflineNodeDropsTraffic) {
  net_.set_offline(1, true);
  net_.send(0, 1, test_message(100, 1));
  queue_.run_all();
  EXPECT_TRUE(nodes_[1].received.empty());
  net_.set_offline(1, false);
  net_.send(0, 1, test_message(100, 2));
  queue_.run_all();
  EXPECT_EQ(nodes_[1].received.size(), 1u);
}

TEST_F(NetworkTest, OfflineSenderDropsTraffic) {
  net_.set_offline(0, true);
  net_.send(0, 1, test_message(100, 1));
  queue_.run_all();
  EXPECT_TRUE(nodes_[1].received.empty());
}

TEST_F(NetworkTest, ByteAndMessageCounters) {
  net_.send(0, 1, test_message(100, 1));
  net_.send(1, 2, test_message(50, 2));
  EXPECT_EQ(net_.messages_sent(), 2u);
  EXPECT_EQ(net_.bytes_sent(), 150u);  // overhead configured as 0 in fixture
}

TEST_F(NetworkTest, SendsAreCountedByKind) {
  net_.send(0, 1, Message{1, 0, 100});
  net_.send(0, 1, Message{3, 0, 100});
  net_.send(1, 2, Message{3, 0, 100});
  net_.send_ignored(net_.link(1, 0), 36);
  EXPECT_EQ(net_.sent_by_kind(), (std::array<std::uint64_t, kMessageKinds>{1, 1, 0, 2}));
  EXPECT_EQ(net_.messages_sent(), 4u);
  EXPECT_THROW(net_.send(0, 1, Message{0, 0, 10}), std::invalid_argument);
  EXPECT_THROW(net_.send(0, 1, Message{kMessageKinds, 0, 10}), std::invalid_argument);
  EXPECT_EQ(net_.messages_sent(), 4u);
}

// A send_ignored message is a kind-0 entry wherever it waits: in the FIFO
// behind a busy link's message, or as the scheduled delivery a later send
// queues behind. Neither is ever handed to the receiver.
TEST_F(NetworkTest, KindZeroEntriesAreNeverDispatched) {
  net_.send(0, 1, test_message(1250, 1));  // busy link: the ignored send queues
  net_.send_ignored(net_.link(0, 1), 1250);
  net_.send(0, 1, test_message(1250, 2));
  net_.send_ignored(net_.link(1, 2), 1250);  // idle link: its place is reserved...
  queue_.schedule_at(0.05, [this] { net_.send(1, 2, test_message(1250, 3)); });
  queue_.run_all();  // ...and the send behind it gives the place its event
  EXPECT_EQ(net_.deliveries_elided(), 0u);
  ASSERT_EQ(nodes_[1].received.size(), 2u);
  EXPECT_EQ(nodes_[1].received[0].tag, 1);
  EXPECT_EQ(nodes_[1].received[1].tag, 2);
  ASSERT_EQ(nodes_[2].received.size(), 1u);
  EXPECT_EQ(nodes_[2].received[0].tag, 3);
  EXPECT_NEAR(nodes_[2].received[0].at, 0.3, 1e-9);  // serialized behind the ignored one
}

TEST_F(NetworkTest, EdgeLatencySymmetricAndStable) {
  EXPECT_DOUBLE_EQ(net_.edge_latency(0, 1), net_.edge_latency(1, 0));
  EXPECT_THROW((void)net_.edge_latency(0, 2), std::invalid_argument);
}

// Regression guards for the flat-array (CSR) rewrite ------------------------

// A link must serialize many messages in exact send order, with each
// transfer starting when the previous one finishes.
TEST_F(NetworkTest, LinkSerializesLongTrainInOrder) {
  constexpr int kTrain = 50;
  for (int i = 0; i < kTrain; ++i) net_.send(0, 1, test_message(1250, i));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), static_cast<std::size_t>(kTrain));
  for (int i = 0; i < kTrain; ++i) {
    EXPECT_EQ(nodes_[1].received[i].tag, i);
    // 0.1 s transfer each, serialized, + 0.1 s propagation.
    EXPECT_NEAR(nodes_[1].received[i].at, 0.1 * (i + 1) + 0.1, 1e-9);
  }
}

// Event trains: one scheduled delivery event per busy link, however many
// messages ride it. The pending-event set must be O(active links), not
// O(in-flight messages).
TEST_F(NetworkTest, PendingEventsBoundedByActiveLinks) {
  constexpr int kPerLink = 40;
  for (int i = 0; i < kPerLink; ++i) {
    net_.send(0, 1, test_message(1250, i));        // link 0->1
    net_.send(1, 0, test_message(1250, 100 + i));  // link 1->0
    net_.send(1, 2, test_message(1250, 200 + i));  // link 1->2
  }
  EXPECT_EQ(net_.messages_in_flight(), 3u * kPerLink);
  EXPECT_EQ(net_.active_links(), 3u);
  // One event per active link; not one per message.
  EXPECT_EQ(queue_.pending(), 3u);
  queue_.run_all();
  EXPECT_EQ(net_.messages_in_flight(), 0u);
  EXPECT_EQ(net_.active_links(), 0u);
  ASSERT_EQ(nodes_[1].received.size(), static_cast<std::size_t>(kPerLink));
  ASSERT_EQ(nodes_[0].received.size(), static_cast<std::size_t>(kPerLink));
  ASSERT_EQ(nodes_[2].received.size(), static_cast<std::size_t>(kPerLink));
  for (int i = 0; i < kPerLink; ++i) {
    EXPECT_EQ(nodes_[1].received[i].tag, i);  // FIFO per link
    EXPECT_EQ(nodes_[0].received[i].tag, 100 + i);
    EXPECT_EQ(nodes_[2].received[i].tag, 200 + i);
  }
}

// A node going offline mid-train drops the queued remainder at delivery
// time (same per-message semantics as the per-event implementation), and
// the link drains cleanly for later traffic.
TEST_F(NetworkTest, OfflineMidTrainDropsQueuedMessages) {
  net_.send(0, 1, test_message(1250, 1));  // arrives at 0.2
  net_.send(0, 1, test_message(1250, 2));  // arrives at 0.3
  queue_.run_until(0.25);
  ASSERT_EQ(nodes_[1].received.size(), 1u);
  net_.set_offline(1, true);
  queue_.run_all();
  EXPECT_EQ(nodes_[1].received.size(), 1u);  // second message dropped
  EXPECT_EQ(net_.messages_in_flight(), 0u);
  EXPECT_EQ(net_.active_links(), 0u);
  net_.set_offline(1, false);
  net_.send(0, 1, test_message(1250, 3));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), 2u);
  EXPECT_EQ(nodes_[1].received[1].tag, 3);
}

// A handler replying instantly from inside a delivery (the inv -> getdata
// pattern) must not disturb the serving link's train.
TEST_F(NetworkTest, ReplyFromHandlerDoesNotDisturbTrain) {
  struct Replier : INode {
    Network* net = nullptr;
    std::vector<int> tags;
    void on_message(NodeId from, const Message& msg) override {
      tags.push_back(tag_of(msg));
      if (tags.size() == 1) net->send(1, from, test_message(10, 99));
    }
  };
  Replier replier;
  replier.net = &net_;
  net_.attach(1, &replier);
  for (int i = 0; i < 5; ++i) net_.send(0, 1, test_message(1250, i));
  queue_.run_all();
  ASSERT_EQ(replier.tags.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(replier.tags[i], i);
  ASSERT_EQ(nodes_[0].received.size(), 1u);  // the reply came back
  EXPECT_EQ(nodes_[0].received[0].tag, 99);
}

// Fast-path counters: a send on an idle link delivers directly (no FIFO),
// while messages queued behind it ride the link's train, one event each.
TEST_F(NetworkTest, IdleLinkSendsCountAsDirectDeliveries) {
  net_.send(0, 1, test_message(1250, 1));  // idle link: direct
  queue_.run_all();
  net_.send(0, 1, test_message(1250, 2));  // idle again: direct
  queue_.run_all();
  EXPECT_EQ(net_.direct_deliveries(), 2u);
  ASSERT_EQ(nodes_[1].received.size(), 2u);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);  // same timing as the slow path
}

TEST_F(NetworkTest, BusyLinkTrainCountsBurstDrains) {
  constexpr int kTrain = 8;
  for (int i = 0; i < kTrain; ++i) net_.send(0, 1, test_message(1250, i));
  queue_.run_all();
  // First message rode the direct path; the 7 queued behind it were
  // delivered by consecutive head events on the same link, one event each.
  EXPECT_EQ(net_.direct_deliveries(), 1u);
  EXPECT_EQ(queue_.events_executed(), static_cast<std::uint64_t>(kTrain));
  ASSERT_EQ(nodes_[1].received.size(), static_cast<std::size_t>(kTrain));
  for (int i = 0; i < kTrain; ++i) EXPECT_EQ(nodes_[1].received[i].tag, i);
}

// A train's receiver that sends from inside a head delivery, on links that
// have never queued: each pair of sends gives its link a FIFO, so the FIFO
// pool grows while the delivery that reads it is on the stack. Every link
// must still deliver its own messages, in order and on time.
TEST_F(NetworkTest, TrainReceiverQueuingOnNewLinksKeepsEveryLinkOnTime) {
  struct Forwarder : INode {
    Network* net = nullptr;
    EventQueue* queue = nullptr;
    std::vector<Recorder::Received> received;
    void on_message(NodeId from, const Message& msg) override {
      const int tag = tag_of(msg);
      received.push_back({from, tag, queue->now()});
      if (tag != 1 && tag != 3) return;
      const NodeId to = tag == 1 ? 2 : 0;
      for (int k = 0; k < 2; ++k) net->send(1, to, test_message(1250, 10 * tag + k));
    }
  };
  Forwarder forwarder;
  forwarder.net = &net_;
  forwarder.queue = &queue_;
  net_.attach(1, &forwarder);
  constexpr int kTrain = 8;
  for (int i = 0; i < kTrain; ++i) net_.send(0, 1, test_message(1250, i));
  queue_.run_all();

  // 0.1 s transfer per message, serialized per link, + 0.1 s propagation.
  ASSERT_EQ(forwarder.received.size(), static_cast<std::size_t>(kTrain));
  for (int i = 0; i < kTrain; ++i) {
    EXPECT_EQ(forwarder.received[i].from, 0u);
    EXPECT_EQ(forwarder.received[i].tag, i);
    EXPECT_NEAR(forwarder.received[i].at, 0.1 * (i + 1) + 0.1, 1e-9);
  }
  // Message 1 arrives at 0.3 and message 3 at 0.5; each reply pair departs then.
  const auto check = [](const std::vector<Recorder::Received>& got, int first_tag,
                        Seconds first_at) {
    ASSERT_EQ(got.size(), 2u);
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(got[k].from, 1u);
      EXPECT_EQ(got[k].tag, first_tag + k);
      EXPECT_NEAR(got[k].at, first_at + 0.1 * k, 1e-9);
    }
  };
  check(nodes_[2].received, 10, 0.5);
  check(nodes_[0].received, 30, 0.7);
  EXPECT_EQ(net_.messages_in_flight(), 0u);
  EXPECT_EQ(net_.active_links(), 0u);
}

TEST_F(NetworkTest, FastPathPreservesTimingAcrossIdleGaps) {
  // Burst, drain to idle, then another send: the second burst must start
  // from the link-idle state, not from a stale last-arrival clamp.
  net_.send(0, 1, test_message(1250, 1));
  net_.send(0, 1, test_message(1250, 2));
  queue_.run_all();
  net_.send(0, 1, test_message(1250, 3));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), 3u);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[1].received[1].at, 0.3, 1e-9);
  // Third send departs at 0.3 (link free), arrives 0.3 + 0.1 + 0.1.
  EXPECT_NEAR(nodes_[1].received[2].at, 0.5, 1e-9);
}

// peers() must keep Topology's adjacency order — protocol broadcast order
// (and therefore the whole deterministic replay) depends on it.
TEST(NetworkStandalone, PeersKeepTopologyOrder) {
  Rng topo_rng(7);
  auto topo = Topology::random(50, 5, topo_rng);
  EventQueue queue;
  Rng rng(8);
  Network net(queue, topo, LatencyModel::constant(0.01), LinkParams{1e6, 0}, rng);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) EXPECT_EQ(net.peers(v), topo.peers(v));
}

// Every edge of a random topology must resolve, in both directions, with the
// same latency; non-edges must throw.
TEST(NetworkStandalone, AllEdgesResolveSymmetrically) {
  Rng topo_rng(11);
  auto topo = Topology::random(64, 5, topo_rng);
  EventQueue queue;
  Rng rng(12);
  Network net(queue, topo, LatencyModel::default_internet(), LinkParams{1e6, 0}, rng);
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    for (NodeId b : topo.peers(a)) {
      EXPECT_DOUBLE_EQ(net.edge_latency(a, b), net.edge_latency(b, a));
      EXPECT_GT(net.edge_latency(a, b), 0.0);
    }
    for (NodeId b = 0; b < topo.num_nodes(); ++b) {
      if (b == a || topo.has_edge(a, b)) continue;
      EXPECT_THROW((void)net.edge_latency(a, b), std::invalid_argument);
    }
  }
}

TEST(NetworkStandalone, UnattachedRecipientThrows) {
  EventQueue queue;
  Rng rng(3);
  auto topo = Topology::line(2);
  Network net(queue, topo, LatencyModel::constant(0.0), LinkParams{1e9, 0}, rng);
  Recorder a;
  a.queue = &queue;
  net.attach(0, &a);
  net.send(0, 1, test_message(1, 1));
  EXPECT_THROW(queue.run_all(), std::logic_error);
}

// A delivery's prefetch hook reads its receiver's handler slot while the
// event before it runs. The three deliveries here arrive at one time, so
// each is the run head while the one before it runs. The second one's
// receiver is attached only by the first delivery, so its hook finds no
// handler and must skip it. The third one's receiver is offline, and its
// message is dropped on arrival.
TEST(NetworkStandalone, PrefetchHookSkipsUnattachedAndOfflineReceivers) {
  EventQueue queue;
  Rng rng(3);
  Network net(queue, Topology::line(3), LatencyModel::constant(0.1), LinkParams{1e9, 0}, rng);
  Recorder late;
  late.queue = &queue;
  struct Attacher : INode {
    Network* net = nullptr;
    INode* late = nullptr;
    int received = 0;
    void on_message(NodeId, const Message&) override {
      ++received;
      net->attach(1, late);
    }
  };
  Attacher first;
  first.net = &net;
  first.late = &late;
  Recorder offline;
  offline.queue = &queue;
  net.attach(0, &first);
  net.attach(2, &offline);
  net.send(1, 0, test_message(1, 1));  // attaches node 1 when it arrives
  net.send(0, 1, test_message(1, 2));  // hinted while node 1 has no handler
  net.send(1, 2, test_message(1, 3));  // hinted while node 2 is offline
  net.set_offline(2, true);
  queue.run_all();
  EXPECT_EQ(first.received, 1);
  ASSERT_EQ(late.received.size(), 1u);
  EXPECT_EQ(late.received[0].tag, 2);
  EXPECT_TRUE(offline.received.empty());
  EXPECT_EQ(queue.events_executed(), 3u);
}

// Busy links draw their FIFOs from one pool. A link that drained to empty
// and queues again while another link is busy must deliver exactly its own
// messages, in order, and the other link exactly its own.
TEST_F(NetworkTest, RequeuedLinkKeepsItsOwnFifo) {
  for (int i = 0; i < 3; ++i) net_.send(0, 1, test_message(1250, i));  // 0->1 queues
  queue_.run_all();                                                     // ...and drains
  ASSERT_EQ(nodes_[1].received.size(), 3u);
  EXPECT_EQ(net_.active_links(), 0u);
  for (int i = 0; i < 3; ++i) net_.send(1, 2, test_message(1250, 10 + i));  // 1->2 busy
  for (int i = 0; i < 3; ++i) net_.send(0, 1, test_message(1250, 20 + i));  // 0->1 again
  EXPECT_EQ(net_.active_links(), 2u);
  queue_.run_until(queue_.now() + 0.25);  // both links part-way through their trains
  net_.send(1, 2, test_message(1250, 13));
  net_.send(0, 1, test_message(1250, 23));
  queue_.run_all();

  std::vector<int> to1;
  for (const auto& r : nodes_[1].received) {
    EXPECT_EQ(r.from, 0u);
    to1.push_back(r.tag);
  }
  std::vector<int> to2;
  for (const auto& r : nodes_[2].received) {
    EXPECT_EQ(r.from, 1u);
    to2.push_back(r.tag);
  }
  EXPECT_EQ(to1, (std::vector<int>{0, 1, 2, 20, 21, 22, 23}));
  EXPECT_EQ(to2, (std::vector<int>{10, 11, 12, 13}));
  EXPECT_TRUE(nodes_[0].received.empty());
  EXPECT_EQ(net_.messages_in_flight(), 0u);
}

// --- Latency assignment ---------------------------------------------------
//
// One latency is drawn per undirected edge, in (a ascending, peers(a) order)
// order for a < b, and both directed slots get it. The oracle replays those
// draws into a map keyed by node pair and reads every directed edge back
// through edge_latency, a find_edge lookup. The digests pin the assignment
// itself; they were recorded before the constructor paired each edge with
// its reverse in one pass.
std::uint64_t checked_latency_digest(const Topology& topo, bool clustered) {
  const LatencyModel inter = LatencyModel::default_internet();
  const LatencyModel intra = LatencyModel::intra_cluster();
  const auto model_of = [&](NodeId a, NodeId b) -> const LatencyModel& {
    return clustered && topo.cluster_of(a) == topo.cluster_of(b) ? intra : inter;
  };
  EventQueue queue;
  Rng rng(2024);
  Network net(queue, topo, inter, LinkParams{1e6, 0}, rng, clustered ? &intra : nullptr);

  Rng oracle_rng(2024);
  std::map<std::pair<NodeId, NodeId>, Seconds> drawn;
  for (NodeId a = 0; a < topo.num_nodes(); ++a)
    for (NodeId b : topo.peers(a))
      if (a < b) drawn[{a, b}] = model_of(a, b).sample(oracle_rng);

  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over (a, b, latency bits)
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  };
  std::size_t directed = 0;
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    for (NodeId b : topo.peers(a)) {
      const Seconds got = net.edge_latency(a, b);
      EXPECT_EQ(got, drawn.at({std::min(a, b), std::max(a, b)})) << a << " -> " << b;
      std::uint64_t bits = 0;
      std::memcpy(&bits, &got, sizeof bits);
      mix(a);
      mix(b);
      mix(bits);
      ++directed;
    }
  }
  EXPECT_EQ(directed, 2 * drawn.size());
  return h;
}

TEST(NetworkLatency, EveryDirectedEdgeMatchesTheFindEdgeOracle) {
  Rng random_rng(31);
  EXPECT_EQ(checked_latency_digest(Topology::random(300, 5, random_rng), false),
            0x50b0104d1e091ecbull);
  Rng clustered_rng(32);
  EXPECT_EQ(checked_latency_digest(Topology::clustered(400, 4, 5, 8, clustered_rng), true),
            0xbb38bc0702035b17ull);
  // Rows of 39 peers: past find_edge's linear-scan cutoff, so the oracle
  // takes its binary search.
  EXPECT_EQ(checked_latency_digest(Topology::complete(40), false), 0x1311031552a0ac8full);
  EXPECT_EQ(checked_latency_digest(Topology::line(25), false), 0x8f657f20f17bd0d3ull);
}

TEST_F(NetworkTest, OfflineControlRejectsUnknownNode) {
  EXPECT_THROW(net_.set_offline(3, true), std::out_of_range);
  EXPECT_THROW((void)net_.is_offline(3), std::out_of_range);
  EXPECT_FALSE(net_.is_offline(2));
}

// --- send_ignored: a message its receiver is known to drop -------------------
//
// Each script runs twice: once with send_ignored, once with a real message
// that its receiver drops. Both runs must log the same deliveries and the same
// probe events, in the same order, at the same times, and charge the same
// bytes: the skipped delivery keeps its (time, seq) place. Latency, sizes and
// bandwidth are powers of two, so every tie is exact.
constexpr int kDroppedTag = -1;
constexpr Seconds kStep = 0.125;  // one 1250-byte transfer at 80 kbit/s

class IgnoredTwin {
 public:
  explicit IgnoredTwin(bool elide, const Topology& topo = Topology::line(3))
      : elide_(elide),
        topo_(topo),
        rng_(1),
        net_(queue_, topo_, LatencyModel::constant(2 * kStep), LinkParams{80'000.0, 0}, rng_) {
    sinks_.resize(topo_.num_nodes());
    for (NodeId i = 0; i < topo_.num_nodes(); ++i) {
      sinks_[i].twin = this;
      net_.attach(i, &sinks_[i]);
    }
  }

  void ignored(NodeId from, NodeId to) {
    if (elide_) {
      net_.send_ignored(net_.link(from, to), 1250);
    } else {
      net_.send(from, to, test_message(1250, kDroppedTag));
    }
  }
  void real(NodeId from, NodeId to, int tag) {
    net_.send(from, to, test_message(1250, tag));
  }
  /// Events that log `tag` at every grid time from now on, scheduled now:
  /// they order before everything scheduled later at the same time.
  void probes(int tag) {
    for (int k = 0; k <= 16; ++k) {
      const Seconds at = kStep * k;
      if (at < queue_.now()) continue;
      queue_.schedule_at(at, [this, tag] { note(tag, kNoNode); });
    }
  }
  template <typename F>
  void at(Seconds t, F fn) {
    queue_.schedule_at(t, std::move(fn));
  }

  EventQueue& queue() { return queue_; }
  Network& net() { return net_; }
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  struct Sink : INode {
    IgnoredTwin* twin = nullptr;
    void on_message(NodeId from, const Message& msg) override {
      const int tag = tag_of(msg);
      if (tag != kDroppedTag) twin->note(tag, from);
    }
  };

  void note(int tag, NodeId from) {
    log_.push_back(std::to_string(tag) + " from " + std::to_string(from) + " at " +
                   std::to_string(queue_.now() / kStep));
  }

  bool elide_;
  EventQueue queue_;
  Topology topo_;
  Rng rng_;
  Network net_;
  std::deque<Sink> sinks_;
  std::vector<std::string> log_;
};

struct IgnoredCase {
  const char* name;
  bool busy;             ///< a real message is on the link before the ignored one
  int later_offset;      ///< later real send, in steps from the skipped arrival
  bool later_scheduled_first;  ///< its event ordered before the skipped place
  std::uint64_t elided;  ///< expected Network::deliveries_elided
};

void PrintTo(const IgnoredCase& c, std::ostream* os) { *os << c.name; }

class SendIgnored : public ::testing::TestWithParam<IgnoredCase> {};

TEST_P(SendIgnored, MatchesARealMessageItsReceiverDrops) {
  const IgnoredCase& c = GetParam();
  std::vector<std::string> logs[2];
  std::uint64_t bytes[2];
  std::uint64_t messages[2];
  std::uint64_t events[2];
  for (const bool elide : {false, true}) {
    IgnoredTwin t(elide);
    // Idle link: the ignored message arrives at 3 steps (1 transfer + 2
    // latency). Busy link: it queues behind a real one and arrives at 4.
    const Seconds skipped = kStep * (c.busy ? 4 : 3);
    const Seconds later = skipped + kStep * c.later_offset;
    const auto later_send = [&t] {
      t.real(0, 1, 20);
      t.probes(300);  // ties with the re-armed train at the same times
    };
    t.probes(100);
    if (c.busy) t.real(0, 1, 10);
    if (c.later_scheduled_first) t.at(later, later_send);
    t.ignored(0, 1);
    if (!c.later_scheduled_first) t.at(later, later_send);
    t.at(skipped, [&t] { t.probes(200); });
    t.queue().run_all();
    logs[elide] = t.log();
    bytes[elide] = t.net().bytes_sent();
    messages[elide] = t.net().messages_sent();
    events[elide] = t.queue().events_executed();
    if (elide) {
      EXPECT_EQ(t.net().deliveries_elided(), c.elided);
    }
    EXPECT_EQ(t.net().messages_in_flight(), 0u);
    EXPECT_EQ(t.net().active_links(), 0u);
  }
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_EQ(bytes[1], bytes[0]);
  EXPECT_EQ(messages[1], messages[0]);
  EXPECT_EQ(bytes[1], messages[1] * 1250);  // ignored sends are counted
  EXPECT_EQ(events[1] + c.elided, events[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Network, SendIgnored,
    ::testing::Values(IgnoredCase{"IdleThenSendBeforeArrival", false, -1, false, 0},
                      IgnoredCase{"IdleThenSendAtArrivalAheadOfIt", false, 0, true, 0},
                      IgnoredCase{"IdleThenSendAtArrivalBehindIt", false, 0, false, 1},
                      IgnoredCase{"IdleThenSendAfterArrival", false, 1, false, 1},
                      IgnoredCase{"BusyThenSendBeforeArrival", true, -1, false, 0},
                      IgnoredCase{"BusyThenSendAtArrivalAheadOfIt", true, 0, true, 0},
                      IgnoredCase{"BusyThenSendAtArrivalBehindIt", true, 0, false, 0},
                      IgnoredCase{"BusyThenSendAfterArrival", true, 1, false, 0}),
    [](const ::testing::TestParamInfo<IgnoredCase>& info) { return info.param.name; });

// A random gossip script on a complete graph: real and ignored sends on every
// link, from events at tied times, with probes in between.
TEST(NetworkStandalone, RandomIgnoredSendsMatchDroppedMessages) {
  constexpr NodeId kNodes = 4;
  std::vector<std::string> logs[2];
  std::uint64_t elided = 0;
  for (const bool elide : {false, true}) {
    IgnoredTwin t(elide, Topology::complete(kNodes));
    std::uint64_t state = 42;
    auto next = [&state] {  // splitmix64: the same stream in both runs
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    std::function<void(int)> act = [&](int depth) {
      const std::uint64_t r = next();
      const auto from = static_cast<NodeId>(r % kNodes);
      const auto to = static_cast<NodeId>((from + 1 + (r >> 8) % (kNodes - 1)) % kNodes);
      if ((r >> 16) % 3 == 0) {
        t.real(from, to, static_cast<int>(r >> 40) & 0xffff);
      } else {
        t.ignored(from, to);
      }
      if (depth < 6) {
        const Seconds at = t.queue().now() + kStep * static_cast<double>((r >> 24) % 16);
        t.at(at, [&act, depth] { act(depth + 1); });
        if ((r >> 32) % 4 == 0) t.at(at, [&act, depth] { act(depth + 1); });
      }
    };
    for (int i = 0; i < 40; ++i) t.at(kStep * (2 * i), [&act] { act(0); });
    t.probes(7);
    t.queue().run_all();
    logs[elide] = t.log();
    if (elide) elided = t.net().deliveries_elided();
  }
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_GT(logs[0].size(), 150u);
  EXPECT_GT(elided, 20u);
}

}  // namespace
}  // namespace bng::net
