// Declarative, scheduled network faults.
//
// A FaultPlan is the *description* of a fault schedule — timed partitions,
// per-edge extra delay windows, single-node eclipses. schedule_faults()
// turns it into event-queue entries that mutate the Network's per-edge state
// at the right times (see the fault-mechanism section of net/network.hpp):
// the hot send path never learns faults exist, and an empty plan schedules
// nothing at all — zero events, zero allocations, byte-identical behaviour.
//
// Semantics:
//  * Partition: every edge between `group` and its complement drops sends
//    in both directions during [at, heal_at). Messages already in flight
//    when the cut lands still arrive.
//  * LinkDelay: both directions of (a, b) gain `extra` seconds of
//    propagation latency during [at, until). Applies to sends issued inside
//    the window.
//  * Eclipse: all edges incident to `node` drop sends in both directions
//    during [at, heal_at) — the node is isolated but alive (unlike
//    set_offline, which models churn by dropping at the node itself).
//
// Overlapping faults compose: edge blocking is a depth counter, so a
// partition and an eclipse covering the same edge heal independently.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace bng::net {

class Network;

struct FaultPlan {
  struct Partition {
    Seconds at = 0;
    Seconds heal_at = 0;  ///< heal_at <= at means "never heals within the run"
    std::vector<NodeId> group;
  };

  struct LinkDelay {
    Seconds at = 0;
    Seconds until = 0;  ///< until <= at means the delay is permanent
    NodeId a = 0;
    NodeId b = 0;
    Seconds extra = 0;
  };

  struct Eclipse {
    Seconds at = 0;
    Seconds heal_at = 0;  ///< heal_at <= at means "never heals within the run"
    NodeId node = 0;
  };

  std::vector<Partition> partitions;
  std::vector<LinkDelay> link_delays;
  std::vector<Eclipse> eclipses;

  [[nodiscard]] bool empty() const {
    return partitions.empty() && link_delays.empty() && eclipses.empty();
  }
};

/// Schedule every fault transition of `plan` on the network's event queue.
/// Validates eagerly (throws std::invalid_argument) so a bad plan fails at
/// build time, not mid-run: node ids, edge existence, and negative-delay
/// extras are checked here; only delay windows that overlap on the same
/// edge can still be rejected at fire time (atomically, by
/// Network::add_edge_latency). An empty plan is a no-op.
void schedule_faults(Network& net, const FaultPlan& plan);

}  // namespace bng::net
