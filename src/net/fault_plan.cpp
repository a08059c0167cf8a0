#include "net/fault_plan.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "net/network.hpp"

namespace bng::net {

namespace {

void check_node(const Network& net, NodeId node, const char* what) {
  if (node >= net.num_nodes())
    throw std::invalid_argument(std::string("FaultPlan: ") + what + " names unknown node");
}

}  // namespace

void schedule_faults(Network& net, const FaultPlan& plan) {
  if (plan.empty()) return;
  EventQueue& queue = net.queue();

  for (const FaultPlan::Partition& p : plan.partitions) {
    for (NodeId v : p.group) check_node(net, v, "partition");
    // The group is shared by the cut and heal events (and kept alive by
    // them); set_partition resolves edges at fire time.
    auto group = std::make_shared<std::vector<NodeId>>(p.group);
    Network* n = &net;
    queue.schedule_at(p.at, [n, group] { n->set_partition(*group, true); });
    if (p.heal_at > p.at)
      queue.schedule_at(p.heal_at, [n, group] { n->set_partition(*group, false); });
  }

  for (const FaultPlan::LinkDelay& d : plan.link_delays) {
    check_node(net, d.a, "link delay");
    check_node(net, d.b, "link delay");
    // Throws if the edge does not exist; a negative extra must not push the
    // base latency below zero (overlapping windows are re-checked at fire
    // time by add_edge_latency, which validates before mutating).
    if (net.edge_latency(d.a, d.b) + d.extra < 0)
      throw std::invalid_argument("FaultPlan: link delay would make latency negative");
    Network* n = &net;
    queue.schedule_at(d.at, [n, d] { n->add_edge_latency(d.a, d.b, d.extra); });
    if (d.until > d.at)
      queue.schedule_at(d.until, [n, d] { n->add_edge_latency(d.a, d.b, -d.extra); });
  }

  for (const FaultPlan::Eclipse& e : plan.eclipses) {
    check_node(net, e.node, "eclipse");
    Network* n = &net;
    queue.schedule_at(e.at, [n, node = e.node] { n->set_eclipsed(node, true); });
    if (e.heal_at > e.at)
      queue.schedule_at(e.heal_at, [n, node = e.node] { n->set_eclipsed(node, false); });
  }
}

}  // namespace bng::net
