#include "streamrel/maxflow/incremental_dinic.hpp"

#include <stdexcept>

namespace streamrel {

IncrementalMaxFlow::IncrementalMaxFlow(const FlowNetwork& net,
                                       FlowDemand demand)
    : owned_(std::make_unique<ConfigResidual>(net)),
      cfg_(owned_.get()),
      s_(demand.source),
      t_(demand.sink),
      target_(demand.rate) {
  net.check_demand(demand);
  alive_.assign(static_cast<std::size_t>(net.num_edges()), true);
  mask_valid_ = net.fits_mask();
  if (mask_valid_) alive_mask_ = full_mask(net.num_edges());
  reaugment();
}

IncrementalMaxFlow::IncrementalMaxFlow(ConfigResidual& residual, NodeId s,
                                       NodeId t, Capacity target,
                                       Mask initial_alive)
    : cfg_(&residual), s_(s), t_(t), target_(target) {
  if (!cfg_->fits_mask()) {
    throw std::invalid_argument(
        "IncrementalMaxFlow external mode requires a mask-sized network");
  }
  cfg_->reset(initial_alive);
  alive_.assign(static_cast<std::size_t>(cfg_->num_edges()), false);
  for (EdgeId id = 0; id < cfg_->num_edges(); ++id) {
    alive_[static_cast<std::size_t>(id)] = test_bit(initial_alive, id);
  }
  mask_valid_ = true;
  alive_mask_ = initial_alive;
  reaugment();
}

Capacity IncrementalMaxFlow::augment(NodeId from, NodeId to, Capacity limit) {
  if (limit <= 0) return 0;
  ++solver_calls_;
  return dinic_.solve(cfg_->graph(), from, to, limit);
}

void IncrementalMaxFlow::reaugment() {
  flow_ += augment(s_, t_, target_ - flow_);
}

void IncrementalMaxFlow::drain(NodeId tail, NodeId head, Capacity carried) {
  // Conservation is broken: `tail` has `carried` surplus units and `head`
  // is missing them. Open a temporary bidirectional s <-> t "value
  // channel" of capacity `carried`, then push the full amount tail ->
  // head through the residual graph. Real reroutes restore the flow;
  // repair units crossing the channel s -> t correspond to a reduction of
  // the global flow value, units crossing t -> s to an increase (possible
  // when the removed capacity carried a value-wasting circulation). Flow
  // decomposition of the broken units guarantees the combined
  // augmentation always succeeds in full.
  ResidualGraph& g = cfg_->graph();
  const std::int32_t channel = g.add_arc_pair(s_, t_, carried, carried);
  const Capacity repaired = augment(tail, head, carried);
  if (repaired != carried) {
    throw std::logic_error(
        "IncrementalMaxFlow: flow repair failed; invariant violated");
  }
  const Capacity value_drop = carried - g.arc(channel).cap;  // net s->t use
  flow_ -= value_drop;
  g.remove_last_arc_pair();
}

void IncrementalMaxFlow::apply_toggle(EdgeId id, bool alive) {
  alive_[static_cast<std::size_t>(id)] = alive;
  if (mask_valid_) alive_mask_ ^= bit(id);
  ++toggles_;

  ResidualGraph& g = cfg_->graph();
  const Capacity cap = cfg_->edge_capacity(id);
  const bool directed = cfg_->edge_directed(id);
  const std::int32_t fi = cfg_->forward_arc(id);

  if (alive) {
    // Dead edges always hold (0, 0); restore pristine capacities.
    g.arc(fi).cap = cap;
    g.arc(g.arc(fi).rev).cap = directed ? 0 : cap;
    return;
  }

  // Net flow currently on the edge: positive means u -> v.
  const Capacity net_flow = cap - g.arc(fi).cap;
  g.arc(fi).cap = 0;
  g.arc(g.arc(fi).rev).cap = 0;
  if (net_flow == 0) return;

  // Orient as tail -> head in flow direction, then repair conservation.
  const NodeId tail = net_flow > 0 ? cfg_->edge_u(id) : cfg_->edge_v(id);
  const NodeId head = net_flow > 0 ? cfg_->edge_v(id) : cfg_->edge_u(id);
  const Capacity carried = net_flow > 0 ? net_flow : -net_flow;
  drain(tail, head, carried);
}

void IncrementalMaxFlow::set_edge_alive(EdgeId id, bool alive) {
  if (!cfg_->valid_edge(id)) throw std::invalid_argument("bad edge id");
  if (alive_[static_cast<std::size_t>(id)] == alive) return;
  apply_toggle(id, alive);
  // Cancellation (deletions) or restored capacity (insertions) may have
  // exposed alternative routes.
  reaugment();
}

void IncrementalMaxFlow::sync_to(Mask config) {
  if (!mask_valid_) {
    throw std::logic_error("sync_to requires a mask-sized network");
  }
  // Batch: enable edges first (free capacity gives drains more rerouting
  // room), then clamp-and-drain deletions, and re-augment ONCE at the end.
  // Each drain restores conservation, so the flow stays valid between
  // toggles; the per-toggle re-augmentations of set_edge_alive are pure
  // progress steps and can be deferred.
  const Mask delta = alive_mask_ ^ config;
  if (delta == 0) return;
  Mask enables = delta & config;
  Mask disables = delta & ~config;
  while (enables != 0) {
    const int b = lowest_bit(enables);
    enables &= enables - 1;
    apply_toggle(b, true);
  }
  while (disables != 0) {
    const int b = lowest_bit(disables);
    disables &= disables - 1;
    apply_toggle(b, false);
  }
  reaugment();
}

Mask IncrementalMaxFlow::support_mask() const {
  if (!mask_valid_) {
    throw std::logic_error("support_mask requires a mask-sized network");
  }
  Mask support = 0;
  for (EdgeId id = 0; id < cfg_->num_edges(); ++id) {
    if (!alive_[static_cast<std::size_t>(id)]) continue;  // dead: carries 0
    const std::int32_t fi = cfg_->forward_arc(id);
    if (cfg_->edge_capacity(id) != cfg_->graph().arc(fi).cap) {
      support |= bit(id);
    }
  }
  return support;
}

Mask IncrementalMaxFlow::cut_mask() const {
  if (!mask_valid_) {
    throw std::logic_error("cut_mask requires a mask-sized network");
  }
  const std::vector<bool> reach = cfg_->graph().residual_reachable(s_);
  Mask cut = 0;
  for (EdgeId id = 0; id < cfg_->num_edges(); ++id) {
    const bool ru = reach[static_cast<std::size_t>(cfg_->edge_u(id))];
    const bool rv = reach[static_cast<std::size_t>(cfg_->edge_v(id))];
    // Only orientations with pristine capacity can carry flow out of the
    // reachable set: both for undirected links, u -> v for directed ones.
    if (cfg_->edge_directed(id) ? (ru && !rv) : (ru != rv)) cut |= bit(id);
  }
  return cut;
}

}  // namespace streamrel
