#include "net/network.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

namespace bng::net {
namespace {

struct TestMessage : Message {
  std::size_t size;
  int tag;
  TestMessage(std::size_t s, int t) : size(s), tag(t) {}
  [[nodiscard]] std::size_t wire_size() const override { return size; }
  [[nodiscard]] const char* type_name() const override { return "test"; }
};

struct Recorder : INode {
  struct Received {
    NodeId from;
    int tag;
    Seconds at;
  };
  std::vector<Received> received;
  EventQueue* queue = nullptr;

  void on_message(NodeId from, const MessagePtr& msg) override {
    auto tm = std::dynamic_pointer_cast<const TestMessage>(msg);
    received.push_back({from, tm ? tm->tag : -1, queue->now()});
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
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 7));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), 1u);
  EXPECT_EQ(nodes_[1].received[0].from, 0u);
  EXPECT_EQ(nodes_[1].received[0].tag, 7);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
}

TEST_F(NetworkTest, NonNeighborSendThrows) {
  EXPECT_THROW(net_.send(0, 2, std::make_shared<TestMessage>(10, 0)), std::invalid_argument);
}

TEST_F(NetworkTest, LinkSerializesBackToBackMessages) {
  // Two 1250-byte messages on the same link: the second waits for the first.
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 1));
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 2));
  queue_.run_all();
  ASSERT_EQ(nodes_[1].received.size(), 2u);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[1].received[1].at, 0.3, 1e-9);  // queued behind the first
  EXPECT_EQ(nodes_[1].received[1].tag, 2);
}

TEST_F(NetworkTest, OppositeDirectionsDoNotContend) {
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 1));
  net_.send(1, 0, std::make_shared<TestMessage>(1250, 2));
  queue_.run_all();
  ASSERT_EQ(nodes_[0].received.size(), 1u);
  ASSERT_EQ(nodes_[1].received.size(), 1u);
  EXPECT_NEAR(nodes_[0].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);
}

TEST_F(NetworkTest, DistinctLinksDoNotContend) {
  net_.send(1, 0, std::make_shared<TestMessage>(1250, 1));
  net_.send(1, 2, std::make_shared<TestMessage>(1250, 2));
  queue_.run_all();
  EXPECT_NEAR(nodes_[0].received[0].at, 0.2, 1e-9);
  EXPECT_NEAR(nodes_[2].received[0].at, 0.2, 1e-9);
}

TEST_F(NetworkTest, LargerMessagesTakeProportionallyLonger) {
  net_.send(0, 1, std::make_shared<TestMessage>(12500, 1));  // 1 s transfer
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
  overhead_net.send(0, 1, std::make_shared<TestMessage>(0, 1));  // only overhead
  queue_.run_all();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_NEAR(sink.received[0].at, 0.1, 1e-9);
}

TEST_F(NetworkTest, OfflineNodeDropsTraffic) {
  net_.set_offline(1, true);
  net_.send(0, 1, std::make_shared<TestMessage>(100, 1));
  queue_.run_all();
  EXPECT_TRUE(nodes_[1].received.empty());
  net_.set_offline(1, false);
  net_.send(0, 1, std::make_shared<TestMessage>(100, 2));
  queue_.run_all();
  EXPECT_EQ(nodes_[1].received.size(), 1u);
}

TEST_F(NetworkTest, OfflineSenderDropsTraffic) {
  net_.set_offline(0, true);
  net_.send(0, 1, std::make_shared<TestMessage>(100, 1));
  queue_.run_all();
  EXPECT_TRUE(nodes_[1].received.empty());
}

TEST_F(NetworkTest, ByteAndMessageCounters) {
  net_.send(0, 1, std::make_shared<TestMessage>(100, 1));
  net_.send(1, 2, std::make_shared<TestMessage>(50, 2));
  EXPECT_EQ(net_.messages_sent(), 2u);
  EXPECT_EQ(net_.bytes_sent(), 150u);  // overhead configured as 0 in fixture
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
  for (int i = 0; i < kTrain; ++i) net_.send(0, 1, std::make_shared<TestMessage>(1250, i));
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
    net_.send(0, 1, std::make_shared<TestMessage>(1250, i));        // link 0->1
    net_.send(1, 0, std::make_shared<TestMessage>(1250, 100 + i));  // link 1->0
    net_.send(1, 2, std::make_shared<TestMessage>(1250, 200 + i));  // link 1->2
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
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 1));  // arrives at 0.2
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 2));  // arrives at 0.3
  queue_.run_until(0.25);
  ASSERT_EQ(nodes_[1].received.size(), 1u);
  net_.set_offline(1, true);
  queue_.run_all();
  EXPECT_EQ(nodes_[1].received.size(), 1u);  // second message dropped
  EXPECT_EQ(net_.messages_in_flight(), 0u);
  EXPECT_EQ(net_.active_links(), 0u);
  net_.set_offline(1, false);
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 3));
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
    void on_message(NodeId from, const MessagePtr& msg) override {
      tags.push_back(static_cast<const TestMessage&>(*msg).tag);
      if (tags.size() == 1) net->send(1, from, std::make_shared<TestMessage>(10, 99));
    }
  };
  Replier replier;
  replier.net = &net_;
  net_.attach(1, &replier);
  for (int i = 0; i < 5; ++i) net_.send(0, 1, std::make_shared<TestMessage>(1250, i));
  queue_.run_all();
  ASSERT_EQ(replier.tags.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(replier.tags[i], i);
  ASSERT_EQ(nodes_[0].received.size(), 1u);  // the reply came back
  EXPECT_EQ(nodes_[0].received[0].tag, 99);
}

// Fast-path counters: a send on an idle link delivers directly (no FIFO),
// while messages queued behind it drain as a burst train.
TEST_F(NetworkTest, IdleLinkSendsCountAsDirectDeliveries) {
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 1));  // idle link: direct
  queue_.run_all();
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 2));  // idle again: direct
  queue_.run_all();
  EXPECT_EQ(net_.direct_deliveries(), 2u);
  EXPECT_EQ(net_.burst_drained(), 0u);
  ASSERT_EQ(nodes_[1].received.size(), 2u);
  EXPECT_NEAR(nodes_[1].received[0].at, 0.2, 1e-9);  // same timing as the slow path
}

TEST_F(NetworkTest, BusyLinkTrainCountsBurstDrains) {
  constexpr int kTrain = 8;
  for (int i = 0; i < kTrain; ++i) net_.send(0, 1, std::make_shared<TestMessage>(1250, i));
  queue_.run_all();
  // First message rode the direct path; the 7 queued behind it drained as
  // consecutive head events on the same link.
  EXPECT_EQ(net_.direct_deliveries(), 1u);
  EXPECT_EQ(net_.burst_drained(), static_cast<std::uint64_t>(kTrain - 1));
  ASSERT_EQ(nodes_[1].received.size(), static_cast<std::size_t>(kTrain));
  for (int i = 0; i < kTrain; ++i) EXPECT_EQ(nodes_[1].received[i].tag, i);
}

TEST_F(NetworkTest, FastPathPreservesTimingAcrossIdleGaps) {
  // Burst, drain to idle, then another send: the second burst must start
  // from the link-idle state, not from a stale last-arrival clamp.
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 1));
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 2));
  queue_.run_all();
  net_.send(0, 1, std::make_shared<TestMessage>(1250, 3));
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
  net.send(0, 1, std::make_shared<TestMessage>(1, 1));
  EXPECT_THROW(queue.run_all(), std::logic_error);
}

}  // namespace
}  // namespace bng::net
