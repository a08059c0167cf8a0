// The fault layer: scheduled partitions / link delays / eclipses, their
// composition, and the hard zero-cost guarantee for fault-free runs.
#include "net/fault_plan.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/event_queue.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace bng::net {
namespace {

struct CountingSink : INode {
  std::vector<std::pair<NodeId, Seconds>> received;
  EventQueue* queue = nullptr;
  void on_message(NodeId from, const Message&) override {
    received.emplace_back(from, queue->now());
  }
};

/// A 100-byte message.
constexpr Message kPing{1, 0, 100};

/// Fully-connected 4-node fixture with constant latency.
struct Net4 {
  Net4() : rng(7), topo(Topology::complete(4)) {
    net = std::make_unique<Network>(queue, topo, LatencyModel::constant(0.1),
                                    LinkParams{1e6, 0}, rng);
    sinks.resize(4);
    for (NodeId i = 0; i < 4; ++i) {
      sinks[i].queue = &queue;
      net->attach(i, &sinks[i]);
    }
  }
  EventQueue queue;
  Rng rng;
  Topology topo;
  std::unique_ptr<Network> net;
  std::vector<CountingSink> sinks;
};

TEST(FaultPlan, EmptyPlanSchedulesNothing) {
  Net4 f;
  const std::size_t before = f.queue.pending();
  schedule_faults(*f.net, FaultPlan{});
  EXPECT_EQ(f.queue.pending(), before);
}

TEST(FaultPlan, PartitionDropsCrossEdgesAndHeals) {
  Net4 f;
  FaultPlan plan;
  plan.partitions.push_back(FaultPlan::Partition{1.0, 2.0, {0, 1}});
  schedule_faults(*f.net, plan);

  // Before the cut: 0 -> 2 flows.
  f.net->send(0, 2, kPing);
  f.queue.run_until(0.5);
  EXPECT_EQ(f.sinks[2].received.size(), 1u);

  // During the cut: cross-group drops, intra-group flows.
  f.queue.run_until(1.5);
  f.net->send(0, 2, kPing);
  f.net->send(2, 1, kPing);
  f.net->send(0, 1, kPing);
  f.net->send(3, 2, kPing);
  f.queue.run_until(1.9);
  EXPECT_EQ(f.sinks[2].received.size(), 2u);  // only 3 -> 2 got through
  EXPECT_EQ(f.sinks[1].received.size(), 1u);  // only 0 -> 1 got through

  // After healing everything flows again.
  f.queue.run_until(2.5);
  f.net->send(0, 2, kPing);
  f.queue.run_until(3.0);
  EXPECT_EQ(f.sinks[2].received.size(), 3u);
}

TEST(FaultPlan, InFlightMessagesSurviveTheCut) {
  Net4 f;
  FaultPlan plan;
  plan.partitions.push_back(FaultPlan::Partition{0.05, 2.0, {0}});
  schedule_faults(*f.net, plan);
  f.net->send(0, 1, kPing);  // sent before the cut
  f.queue.run_until(1.0);
  EXPECT_EQ(f.sinks[1].received.size(), 1u);  // arrival ~0.1s, mid-partition
}

TEST(FaultPlan, EclipseIsolatesBothDirections) {
  Net4 f;
  FaultPlan plan;
  plan.eclipses.push_back(FaultPlan::Eclipse{1.0, 2.0, 3});
  schedule_faults(*f.net, plan);
  f.queue.run_until(1.1);
  f.net->send(3, 0, kPing);
  f.net->send(0, 3, kPing);
  f.net->send(0, 1, kPing);
  f.queue.run_until(1.9);
  EXPECT_TRUE(f.sinks[3].received.empty());
  EXPECT_TRUE(f.sinks[0].received.empty());
  EXPECT_EQ(f.sinks[1].received.size(), 1u);
  f.queue.run_until(2.1);
  f.net->send(3, 0, kPing);
  f.queue.run_until(2.6);
  EXPECT_EQ(f.sinks[0].received.size(), 1u);
}

TEST(FaultPlan, LinkDelayWindowAddsAndRemovesLatency) {
  Net4 f;
  FaultPlan plan;
  plan.link_delays.push_back(FaultPlan::LinkDelay{1.0, 2.0, 0, 1, 3.0});
  schedule_faults(*f.net, plan);

  f.queue.run_until(1.1);
  f.net->send(0, 1, kPing);  // inside the window
  f.queue.run_until(10.0);
  f.net->send(0, 1, kPing);  // after it closed
  f.queue.run_until(20.0);
  ASSERT_EQ(f.sinks[1].received.size(), 2u);
  // Inside the window: ~1.1 + transfer + (0.1 + 3.0). After it: base latency.
  EXPECT_NEAR(f.sinks[1].received[0].second, 4.2, 0.01);
  EXPECT_NEAR(f.sinks[1].received[1].second, 10.1, 0.01);
}

TEST(FaultPlan, HealingDelayNeverReordersABusyLink) {
  // A message sent inside the delay window is still in flight when the
  // window closes; one sent just after computes a smaller raw latency. The
  // link is store-and-forward: delivery order must hold (the later message
  // is clamped behind the head, not delivered first).
  Net4 f;
  FaultPlan plan;
  plan.link_delays.push_back(FaultPlan::LinkDelay{1.0, 2.0, 0, 1, 5.0});
  schedule_faults(*f.net, plan);
  f.queue.run_until(1.5);
  f.net->send(0, 1, kPing);  // arrives ~6.6
  f.queue.run_until(2.5);
  f.net->send(0, 1, kPing);  // raw arrival ~2.6
  f.queue.run_until(10.0);
  ASSERT_EQ(f.sinks[1].received.size(), 2u);
  EXPECT_LE(f.sinks[1].received[0].second, f.sinks[1].received[1].second);
  EXPECT_NEAR(f.sinks[1].received[0].second, 6.6, 0.01);
}

TEST(FaultPlan, OverlappingFaultsComposeOnSharedEdges) {
  Net4 f;
  // An eclipse of node 0 inside a partition that also cuts node 0's edges:
  // the eclipse healing first must not unblock the partition's cut.
  FaultPlan plan;
  plan.partitions.push_back(FaultPlan::Partition{1.0, 4.0, {0}});
  plan.eclipses.push_back(FaultPlan::Eclipse{1.5, 2.0, 0});
  schedule_faults(*f.net, plan);
  f.queue.run_until(2.5);  // eclipse healed, partition still active
  f.net->send(0, 1, kPing);
  f.queue.run_until(3.5);
  EXPECT_TRUE(f.sinks[1].received.empty());
  f.queue.run_until(4.5);  // partition healed too
  f.net->send(0, 1, kPing);
  f.queue.run_until(5.0);
  EXPECT_EQ(f.sinks[1].received.size(), 1u);
}

TEST(FaultPlan, ValidatesNodesEagerly) {
  Net4 f;
  FaultPlan bad_partition;
  bad_partition.partitions.push_back(FaultPlan::Partition{1.0, 2.0, {99}});
  EXPECT_THROW(schedule_faults(*f.net, bad_partition), std::invalid_argument);
  FaultPlan bad_eclipse;
  bad_eclipse.eclipses.push_back(FaultPlan::Eclipse{1.0, 2.0, 99});
  EXPECT_THROW(schedule_faults(*f.net, bad_eclipse), std::invalid_argument);
  FaultPlan bad_delay;
  bad_delay.link_delays.push_back(FaultPlan::LinkDelay{1.0, 2.0, 0, 99, 1.0});
  EXPECT_THROW(schedule_faults(*f.net, bad_delay), std::invalid_argument);
  // A negative extra that would push the 0.1s base latency below zero must
  // be rejected at schedule time, not explode mid-run from the callback.
  FaultPlan negative_delay;
  negative_delay.link_delays.push_back(FaultPlan::LinkDelay{1.0, 2.0, 0, 1, -0.2});
  EXPECT_THROW(schedule_faults(*f.net, negative_delay), std::invalid_argument);
  EXPECT_NEAR(f.net->edge_latency(0, 1), 0.1, 1e-9);  // untouched
}

TEST(FaultPlan, EmptyPlanLeavesTrafficBitIdentical) {
  // The zero-cost guarantee, witnessed end-to-end: the same gossip burst
  // through a network with an empty FaultPlan scheduled produces identical
  // event counts, byte counts, and delivery times as one with no plan at
  // all, at every step.
  auto run = [](bool install_empty_plan) {
    Net4 f;
    if (install_empty_plan) schedule_faults(*f.net, FaultPlan{});
    for (int round = 0; round < 8; ++round) {
      for (NodeId a = 0; a < 4; ++a)
        for (NodeId b : f.net->peers(a)) f.net->send(a, b, kPing);
      f.queue.run_until(f.queue.now() + 0.05);
    }
    f.queue.run_all();
    std::vector<std::pair<NodeId, Seconds>> all;
    for (const auto& s : f.sinks)
      all.insert(all.end(), s.received.begin(), s.received.end());
    return std::make_tuple(f.net->bytes_sent(), f.net->messages_sent(), all);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace bng::net
