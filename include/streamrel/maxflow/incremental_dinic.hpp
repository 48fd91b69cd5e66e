#pragma once
// Incremental bounded max-flow under single-edge insertions and deletions.
//
// The exhaustive reliability algorithms visit all 2^|E| failure
// configurations; visiting them in Gray-code order changes exactly one
// edge per step, and this class repairs the existing flow instead of
// recomputing from scratch:
//
//  * enabling an edge restores its residual capacities and re-augments
//    s -> t (bounded by the demand);
//  * disabling an edge that carries f units first tries to REROUTE the f
//    units from the edge's flow-tail to its flow-head through the residual
//    graph; any irreparable remainder d is cancelled end-to-end by pushing
//    d units tail -> s and t -> head along reverse-flow residual arcs
//    (both succeed by flow decomposition once rerouting is exhausted),
//    after which s -> t is re-augmented.
//
// Two operating modes:
//
//  * OWNED — the legacy constructor: the engine builds its own residual
//    graph for (net, demand) with every edge alive. Used by the naive
//    Gray-code enumeration and the availability simulator.
//  * EXTERNAL — the engine drives a caller-owned ConfigResidual, which
//    may carry super nodes/arcs (the side-array problems of §III-C),
//    configured by the caller before the engine attaches. In this mode
//    the engine additionally supports bulk lazy synchronisation to an
//    arbitrary configuration mask (`sync_to`) without rebuilding the
//    graph.
//
// Invariant after every mutation: flow_value() == min(target, maxflow of
// the current configuration), so admits() answers the feasibility
// question exactly.

#include <cstdint>
#include <memory>
#include <vector>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/maxflow/residual_graph.hpp"

namespace streamrel {

class IncrementalMaxFlow {
 public:
  /// OWNED mode: builds a private residual graph with every edge alive.
  /// Requires a valid demand.
  IncrementalMaxFlow(const FlowNetwork& net, FlowDemand demand);

  /// EXTERNAL mode: drives `residual` (which must outlive the engine and
  /// must not be mutated by anyone else while the engine is attached).
  /// Resets it so exactly the edges in `initial_alive` exist — super arcs
  /// get their pristine capacities — then augments `s -> t` up to
  /// `target`. Requires residual.fits_mask().
  IncrementalMaxFlow(ConfigResidual& residual, NodeId s, NodeId t,
                     Capacity target, Mask initial_alive);

  /// Toggles one edge and repairs the flow. No-op if already in `alive`.
  void set_edge_alive(EdgeId id, bool alive);

  bool edge_alive(EdgeId id) const {
    return alive_[static_cast<std::size_t>(id)];
  }

  /// Current configuration as a mask (bit i set <=> edge i alive).
  /// Requires the network to fit a mask.
  Mask alive_mask() const noexcept { return alive_mask_; }

  /// Toggles every edge on which the current state differs from `config`
  /// (one repair per differing edge). The workhorse of lazily-synced
  /// Gray-code sweeps: engines that skipped steps catch up in
  /// popcount(alive_mask() ^ config) repairs.
  void sync_to(Mask config);

  Capacity target() const noexcept { return target_; }

  /// Current bounded flow value: min(target, max-flow of the alive
  /// configuration).
  Capacity flow_value() const noexcept { return flow_; }

  /// True iff the alive configuration admits the target.
  bool admits() const noexcept { return flow_ >= target_; }

  /// Admitting certificate: the mask of network edges currently carrying
  /// nonzero net flow. The present flow (hence `admits() == true`) remains
  /// valid under ANY configuration that keeps these edges alive, no matter
  /// which other edges toggle. Requires a mask-sized network.
  Mask support_mask() const;

  /// Rejecting certificate, meaningful when `admits() == false`: the mask
  /// of network edges that cross the saturated source-side cut (endpoints
  /// split by residual reachability from s, counting only the orientation
  /// with pristine capacity). The max-flow stays below target under any
  /// configuration whose alive crossing edges are a subset of the current
  /// ones — i.e. as long as no DEAD crossing edge is revived. Requires a
  /// mask-sized network.
  Mask cut_mask() const;

  /// Number of Dinic invocations so far (comparable to one from-scratch
  /// bounded max-flow solve each).
  std::uint64_t solver_calls() const noexcept { return solver_calls_; }

  /// Number of single-edge toggles actually applied (no-ops excluded).
  std::uint64_t toggles() const noexcept { return toggles_; }

 private:
  Capacity augment(NodeId from, NodeId to, Capacity limit);
  void reaugment();
  /// Applies one toggle's capacity edits (and drain, for deletions that
  /// carried flow) WITHOUT the trailing re-augmentation. Callers batching
  /// several toggles invoke this per edge and reaugment() once at the end.
  void apply_toggle(EdgeId id, bool alive);
  /// Pushes `carried` units tail -> head through the residual graph with a
  /// temporary s <-> t value channel open (the deletion repair step).
  void drain(NodeId tail, NodeId head, Capacity carried);

  std::unique_ptr<ConfigResidual> owned_;  ///< OWNED mode storage
  ConfigResidual* cfg_;                    ///< the graph being driven
  NodeId s_;
  NodeId t_;
  Capacity target_;
  Capacity flow_ = 0;
  Mask alive_mask_ = 0;
  bool mask_valid_ = false;  ///< network fits a mask (alive_mask_ usable)
  std::vector<bool> alive_;
  DinicSolver dinic_;
  std::uint64_t solver_calls_ = 0;
  std::uint64_t toggles_ = 0;
};

}  // namespace streamrel
