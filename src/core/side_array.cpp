#include "streamrel/core/side_array.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <optional>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <chrono>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/incremental_dinic.hpp"
#include "streamrel/util/stats.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

SideProblem make_side_problem(std::shared_ptr<const CompiledNetwork> snapshot,
                              const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side) {
  if (!snapshot->valid_node(demand.source) ||
      !snapshot->valid_node(demand.sink)) {
    throw std::invalid_argument("demand endpoints out of range");
  }
  if (demand.source == demand.sink) {
    throw std::invalid_argument("demand source equals sink");
  }
  if (demand.rate <= 0) {
    throw std::invalid_argument("demand rate must be positive");
  }
  SideProblem side;
  side.is_source_side = source_side;

  std::vector<bool> in_side(partition.side_s);
  if (!source_side) in_side.flip();
  side.view = NetworkView(std::move(snapshot), in_side);
  if (!side.view.fits_mask()) {
    throw std::invalid_argument(
        "side component exceeds 63 links; pick a more balanced partition");
  }

  const CompiledNetwork& net = side.view.snapshot();
  const NodeId anchor_orig = source_side ? demand.source : demand.sink;
  side.anchor = side.view.view_node(anchor_orig);
  if (side.anchor == kInvalidNode) {
    throw std::invalid_argument("demand endpoint not on its side");
  }
  side.endpoints.reserve(partition.crossing_edges.size());
  for (EdgeId id : partition.crossing_edges) {
    const NodeId u = net.edge_u(id);
    const NodeId orig =
        partition.side_s[static_cast<std::size_t>(u)] == source_side
            ? u
            : net.edge_v(id);
    side.endpoints.push_back(side.view.view_node(orig));
  }
  return side;
}

SideProblem make_side_problem(const FlowNetwork& net, const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side) {
  return make_side_problem(net.compile(), demand, partition, source_side);
}

namespace {

// Raw shard-local counters for the hot sweep loops (a Telemetry map
// lookup per configuration would dominate); flushed into the public
// SideArrayStats telemetry once per shard, in shard order.
struct SweepCounters {
  std::uint64_t maxflow_calls = 0;
  std::uint64_t engine_toggles = 0;
  // Bit-parallel sweep: per-lane decisions by kernel, plus the scalar
  // residue that consulted an engine. Zero on kScratch (the keys are
  // still flushed, so telemetry trees stay structurally comparable
  // across strategies and thread counts).
  std::uint64_t lanes_certificate = 0;
  std::uint64_t lanes_connectivity = 0;
  std::uint64_t lanes_popcount = 0;
  std::uint64_t scalar_residue = 0;
  // Seeded sweeps: decisions the pre-edit array made without a kernel.
  std::uint64_t lanes_seed = 0;

  void merge(const SweepCounters& other) noexcept {
    maxflow_calls += other.maxflow_calls;
    engine_toggles += other.engine_toggles;
    lanes_certificate += other.lanes_certificate;
    lanes_connectivity += other.lanes_connectivity;
    lanes_popcount += other.lanes_popcount;
    scalar_residue += other.scalar_residue;
    lanes_seed += other.lanes_seed;
  }

  void flush(Telemetry& telemetry) const {
    telemetry.counter(telemetry_keys::kMaxflowCalls) += maxflow_calls;
    telemetry.counter(telemetry_keys::kEngineToggles) += engine_toggles;
    telemetry.counter(telemetry_keys::kLanesWordwise) +=
        lanes_certificate + lanes_connectivity + lanes_popcount;
    telemetry.counter(telemetry_keys::kLanesCertificate) += lanes_certificate;
    telemetry.counter(telemetry_keys::kLanesConnectivity) +=
        lanes_connectivity;
    telemetry.counter(telemetry_keys::kLanesPopcount) += lanes_popcount;
    telemetry.counter(telemetry_keys::kScalarResidue) += scalar_residue;
    // Only repairs carry the seed key: every served solve copies and
    // merges these trees, so a full sweep's tree keeps its parent shape.
    if (lanes_seed != 0) {
      telemetry.counter(telemetry_keys::kLanesSeed) += lanes_seed;
    }
  }
};

// Cooperative stop poll, called every ExecContext::kPollStride steps of a
// shard's walk. `aborted` is shared across shards so one observing thread
// stops them all at their next poll.
bool poll_stop(const ExecContext* ctx, std::atomic<bool>& aborted) {
  if (!ctx) return false;
  if (aborted.load(std::memory_order_relaxed)) return true;
  if (!ctx->should_stop()) return false;
  aborted.store(true, std::memory_order_relaxed);
  return true;
}

// Shared super-arc layout: index 0 is the anchor arc, then per crossing
// edge i an "in" arc S0 -> endpoint (index 1 + 2i) and an "out" arc
// endpoint -> T1 (index 2 + 2i). All arcs start at capacity 0;
// apply_assignment_plan below sets the pristine capacities, which take
// effect at the next reset (scratch path) or engine attach (slab residue).
struct SuperTerminals {
  NodeId source = kInvalidNode;
  NodeId sink = kInvalidNode;
};

SuperTerminals add_side_super_arcs(ConfigResidual& residual,
                                   const SideProblem& side) {
  SuperTerminals t;
  t.source = residual.add_super_node();
  t.sink = residual.add_super_node();
  if (side.is_source_side) {
    residual.add_super_arc(t.source, side.anchor, 0, 0);
  } else {
    residual.add_super_arc(side.anchor, t.sink, 0, 0);
  }
  for (NodeId endpoint : side.endpoints) {
    residual.add_super_arc(t.source, endpoint, 0, 0);  // in arc
    residual.add_super_arc(endpoint, t.sink, 0, 0);    // out arc
  }
  return t;
}

// Resolved super-arc capacities for one assignment: what each arc of the
// add_side_super_arcs layout is set to, plus the flow total that signals
// feasibility. The bit-parallel kernels read the plan directly (seed /
// target sets, anchor-cut bypass); the scalar paths apply it to a
// residual graph.
struct SuperArcPlan {
  Capacity anchor_cap = 0;       ///< super arc 0 (S0 -> anchor or mirror)
  std::vector<Capacity> in_cap;  ///< per endpoint: S0 -> endpoint
  std::vector<Capacity> out_cap; ///< per endpoint: endpoint -> T1
  Capacity required = 0;         ///< d + backflow: the feasibility bound
};

SuperArcPlan plan_assignment_arcs(const SideProblem& side, const Assignment& a,
                                  Capacity d) {
  SuperArcPlan plan;
  plan.anchor_cap = d;
  plan.in_cap.resize(a.usage.size());
  plan.out_cap.resize(a.usage.size());
  Capacity backflow = 0;
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    const Capacity u = a.usage[i];
    // Source side: positive usage leaves via the endpoint (out arc);
    // negative usage enters there. Sink side is the mirror image.
    const bool leaves = side.is_source_side ? (u > 0) : (u < 0);
    const Capacity mag = u > 0 ? u : -u;
    plan.in_cap[i] = leaves ? 0 : mag;
    plan.out_cap[i] = leaves ? mag : 0;
    if (u < 0) backflow -= u;
  }
  plan.required = d + backflow;
  return plan;
}

void apply_assignment_plan(ConfigResidual& residual,
                           const SuperArcPlan& plan) {
  residual.set_super_arc(0, plan.anchor_cap, 0);
  for (std::size_t i = 0; i < plan.in_cap.size(); ++i) {
    residual.set_super_arc(1 + 2 * i, plan.in_cap[i], 0);
    residual.set_super_arc(2 + 2 * i, plan.out_cap[i], 0);
  }
}

// ---------------------------------------------------------------------------
// Scratch sweep (SideSweepStrategy::kScratch) — the paper's procedure,
// one reset + solve per (configuration, assignment) pair. The reference
// oracle for the slab sweep; SideMaskEvaluator reuses its evaluator.

struct SideEvaluator {
  SideEvaluator(const SideProblem& side, MaxFlowAlgorithm algorithm)
      : side_(&side),
        residual_(side.view),
        solver_(make_solver(algorithm)),
        terminals_(add_side_super_arcs(residual_, side)) {}

  /// Configures the super arcs for one assignment; returns the flow
  /// total that signals feasibility.
  Capacity configure(const Assignment& a, Capacity d) {
    const SuperArcPlan plan = plan_assignment_arcs(*side_, a, d);
    apply_assignment_plan(residual_, plan);
    return plan.required;
  }

  Capacity solve(Mask config, Capacity limit) {
    residual_.reset(config);
    return solver_->solve(residual_.graph(), terminals_.source,
                          terminals_.sink, limit);
  }

  const SideProblem* side_;
  ConfigResidual residual_;
  std::unique_ptr<MaxFlowSolver> solver_;
  SuperTerminals terminals_;
};

void sweep_per_assignment(const SideProblem& side,
                          const AssignmentSet& assignments, Capacity d,
                          MaxFlowAlgorithm algorithm, Mask first, Mask last,
                          std::vector<Mask>& by_rank, SweepCounters& stats,
                          const ExecContext* ctx, std::atomic<bool>& aborted) {
  SideEvaluator eval(side, algorithm);
  ProgressMarker progress(exec_progress(ctx));
  const std::uint64_t span = last - first + 1;
  const std::uint64_t passes = static_cast<std::uint64_t>(assignments.size());
  for (int j = 0; j < assignments.size(); ++j) {
    const Capacity required =
        eval.configure(assignments.assignments[static_cast<std::size_t>(j)],
                       d);
    for (Mask config = first;; ++config) {
      if (((config - first) & (ExecContext::kPollStride - 1)) == 0) {
        if (poll_stop(ctx, aborted)) return;
        // This sweep walks the range once PER assignment; progress counts
        // each configuration once, pro-rated over the passes.
        progress.at((static_cast<std::uint64_t>(j) * span +
                     (config - first)) /
                    passes);
      }
      ++stats.maxflow_calls;
      STREAMREL_TRACE_SAMPLED_SPAN(mf_span, stats.maxflow_calls, "maxflow",
                                   "maxflow");
      if (eval.solve(config, required) >= required) {
        by_rank[static_cast<std::size_t>(gray_rank(config))] |= bit(j);
      }
      if (config == last) break;
    }
  }
  progress.at(span);
}

// ---------------------------------------------------------------------------
// Residue engine of the slab sweep.
//
// One persistent IncrementalMaxFlow per assignment, created at the first
// lane the word-wide kernels cannot decide. Consecutive residue lanes of
// one shard lie close together on the Gray walk, so a sync repairs a few
// toggled links instead of re-solving from scratch.

struct GrayEngine {
  GrayEngine(const SideProblem& side, const SuperArcPlan& plan, Mask config)
      : residual(side.view), terminals(add_side_super_arcs(residual, side)) {
    apply_assignment_plan(residual, plan);
    flow = std::make_unique<IncrementalMaxFlow>(
        residual, terminals.source, terminals.sink, plan.required, config);
    refresh();
  }

  ConfigResidual residual;
  SuperTerminals terminals;
  std::unique_ptr<IncrementalMaxFlow> flow;
  // Verdict at state flow->alive_mask(), with certificates that extend it
  // to other configurations (see refresh()):
  bool admits = false; ///< bounded flow value >= the assignment's target
  Mask support = 0;    ///< side edges the cached flow routes through
  Mask cut = 0;        ///< saturated-cut crossing edges (when !admits)

  /// Re-reads the verdict and its certificates after a sync. The support
  /// certificate keeps an admitting verdict valid at any config that
  /// preserves the carrying edges; the cut certificate keeps a rejecting
  /// verdict valid at any config that does not revive a dead crossing
  /// edge of the saturated cut.
  void refresh() {
    admits = flow->admits();
    support = flow->support_mask();
    cut = admits ? Mask{0} : flow->cut_mask();
  }

  void collect(SweepCounters& stats) const {
    stats.maxflow_calls += flow->solver_calls();
    stats.engine_toggles += flow->toggles();
  }
};

// ---------------------------------------------------------------------------
// Bit-parallel slab sweep (SideSweepStrategy::kBitParallel).
//
// The Gray walk is processed in 64-rank slabs held transposed in a
// BitSlabs window (one word per side edge, bit L = "alive at rank
// base + L"). Three word-wide kernels decide whole lanes at once, in
// order of cost:
//
//   1. certificate bank — the last few engine verdicts of this
//      assignment, replayed word-wide: an admitting flow's support
//      edges AND together into a YES lane set, a saturated cut's dead
//      crossing edges AND (complemented) into a NO lane set;
//   2. 64-lane BFS — when the required flow is 1 and every side cap is
//      >= 1, feasibility IS reachability, and one bit-parallel BFS over
//      the side adjacency decides all 64 lanes exactly (both ways);
//   3. anchor-cut popcount — a bit-sliced saturating tally of the alive
//      capacity crossing the anchor's cut, compared per lane against
//      the assignment's requirement: lanes whose cut cannot carry the
//      demand are NO.
//
// Only the residue consults a scalar engine (created lazily, synced to
// the lowest undecided lane); the fresh certificate re-runs word-wide
// immediately, so one sync typically clears many lanes at once. Every
// kernel is sound and the engine is exact, so the output array is
// bitwise identical to kScratch — only the path to each decision (and
// hence maxflow_calls) differs.

constexpr std::size_t kCertBankSize = 12;

struct WordCert {
  Mask mask = 0;  ///< YES: support edges; NO: dead crossing cut edges
  bool admits = false;
};

/// Fixed-capacity most-recent-first certificate ring.
struct CertBank {
  std::array<WordCert, kCertBankSize> certs;
  std::size_t head = 0;  ///< slot of the most recent certificate
  std::size_t count = 0;

  void push(const WordCert& cert) {
    head = (head + kCertBankSize - 1) % kCertBankSize;
    certs[head] = cert;
    if (count < kCertBankSize) ++count;
  }
  const WordCert& at(std::size_t i) const {  // i == 0: most recent
    return certs[(head + i) % kCertBankSize];
  }
};

/// Word-wide replay of one certificate over the slab: returns the lanes
/// (drawn from `candidates`) the certificate decides; the decided value
/// is cert.admits. A YES lane keeps every support edge alive; a NO lane
/// revives no dead crossing edge of the saturated cut.
std::uint64_t cert_decided_lanes(const WordCert& cert, const BitSlabs& slabs,
                                 std::uint64_t candidates) {
  std::uint64_t w = candidates;
  if (cert.admits) {
    for (Mask rest = cert.mask; rest != 0 && w != 0; rest &= rest - 1) {
      w &= slabs.word(lowest_bit(rest));
    }
  } else {
    for (Mask rest = cert.mask; rest != 0 && w != 0; rest &= rest - 1) {
      w &= ~slabs.word(lowest_bit(rest));
    }
  }
  return w;
}

/// Saturating bit-sliced tally over 64 lanes: add() accumulates a small
/// weight into every lane of a word; less_than() then compares all 64
/// sums against the threshold at once. Weights are pre-clamped to the
/// threshold, so bit_width(threshold) value slices plus one overflow
/// word suffice.
class LaneTally {
 public:
  explicit LaneTally(Capacity threshold)
      : bits_(static_cast<int>(
            std::bit_width(static_cast<std::uint64_t>(threshold)))) {}

  void add(std::uint64_t lanes, Capacity weight) {
    const auto w = static_cast<std::uint64_t>(weight);
    for (int b = 0; (w >> b) != 0; ++b) {
      if (((w >> b) & 1) == 0) continue;
      std::uint64_t carry = lanes;
      for (int i = b; i < bits_ && carry != 0; ++i) {
        const std::uint64_t overlap = s_[static_cast<std::size_t>(i)] & carry;
        s_[static_cast<std::size_t>(i)] ^= carry;
        carry = overlap;
      }
      overflow_ |= carry;
    }
  }

  /// Lanes whose tally is strictly below `threshold`.
  std::uint64_t less_than(Capacity threshold) const {
    std::uint64_t lt = 0;
    std::uint64_t ge = overflow_;
    for (int i = bits_ - 1; i >= 0; --i) {
      const std::uint64_t open = ~(lt | ge);
      if (test_bit(static_cast<Mask>(threshold), i)) {
        lt |= open & ~s_[static_cast<std::size_t>(i)];
      } else {
        ge |= open & s_[static_cast<std::size_t>(i)];
      }
    }
    return lt;
  }

 private:
  std::array<std::uint64_t, 6> s_{};
  std::uint64_t overflow_ = 0;
  int bits_;
};

/// 64-lane reachability from the seed nodes over the slab's alive edges;
/// returns the lanes in which any target node is reached. Propagates to
/// a fixpoint (each pass is O(|E_side|) word ops; the pass count is
/// bounded by the side's diameter).
std::uint64_t connected_lanes(const BitSlabs& slabs,
                              const std::vector<NodeId>& eu,
                              const std::vector<NodeId>& ev,
                              const std::vector<std::uint8_t>& undirected,
                              const std::vector<NodeId>& seeds,
                              const std::vector<NodeId>& targets,
                              std::vector<std::uint64_t>& reach) {
  std::fill(reach.begin(), reach.end(), 0);
  for (NodeId s : seeds) {
    reach[static_cast<std::size_t>(s)] = ~std::uint64_t{0};
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t e = 0; e < eu.size(); ++e) {
      const std::uint64_t w = slabs.word(static_cast<int>(e));
      if (w == 0) continue;
      const auto u = static_cast<std::size_t>(eu[e]);
      const auto v = static_cast<std::size_t>(ev[e]);
      const std::uint64_t fwd = reach[u] & w & ~reach[v];
      if (fwd != 0) {
        reach[v] |= fwd;
        changed = true;
      }
      if (undirected[e] != 0) {
        const std::uint64_t bwd = reach[v] & w & ~reach[u];
        if (bwd != 0) {
          reach[u] |= bwd;
          changed = true;
        }
      }
    }
  }
  std::uint64_t out = 0;
  for (NodeId t : targets) {
    out |= reach[static_cast<std::size_t>(t)];
  }
  return out;
}

/// A seeded sweep's view of its seed: the pre-edit array and the side
/// links whose capacity differs from it.
struct SeedRepair {
  const SlabMaskTable* old = nullptr;
  std::vector<int> changed;  ///< view edge ids, ascending
  Mask lowered = 0;          ///< changed links whose capacity fell
  bool any_raised = false;   ///< some changed link's capacity rose
};

/// Diffs the seed's view against the side's, link by link; nullopt when
/// anything but capacities differs (then the seed cannot be used).
std::optional<SeedRepair> plan_seed_repair(const SideProblem& side,
                                           const SideArraySeed& seed) {
  if (seed.side == nullptr || seed.array == nullptr) return std::nullopt;
  const SideProblem& old = *seed.side;
  const NetworkView& before = old.view;
  const NetworkView& after = side.view;
  const int m = after.num_edges();
  if (old.is_source_side != side.is_source_side ||
      old.anchor != side.anchor || old.endpoints != side.endpoints ||
      before.node_map() != after.node_map() ||
      before.edge_map() != after.edge_map() ||
      seed.array->num_links != m ||
      seed.array->size() != (std::size_t{1} << m)) {
    return std::nullopt;
  }
  SeedRepair plan;
  plan.old = seed.array;
  for (int e = 0; e < m; ++e) {
    if (before.edge_u(e) != after.edge_u(e) ||
        before.edge_v(e) != after.edge_v(e) ||
        before.edge_directed(e) != after.edge_directed(e)) {
      return std::nullopt;
    }
    const Capacity was = before.edge_capacity(e);
    const Capacity now = after.edge_capacity(e);
    if (was == now) continue;
    plan.changed.push_back(e);
    if (now < was) {
      plan.lowered |= bit(e);
    } else {
      plan.any_raised = true;
    }
  }
  return plan;
}

/// Per-assignment sweep state: the resolved super-arc plan, kernel
/// eligibility data, the certificate ring, and the lazily created
/// residue engine.
struct SlabAssignment {
  SuperArcPlan plan;
  bool connectivity = false;   ///< required == 1 and all side caps >= 1
  Capacity cut_threshold = 0;  ///< required - endpoint bypass capacity
  std::vector<NodeId> seeds;   ///< BFS sources (positive supply arcs)
  std::vector<NodeId> targets; ///< BFS sinks (positive demand arcs)
  CertBank bank;
  std::unique_ptr<GrayEngine> engine;
};

void sweep_per_assignment_bitparallel(const SideProblem& side,
                                      const AssignmentSet& assignments,
                                      Capacity d, Mask first, Mask last,
                                      const SeedRepair* seed,
                                      std::vector<Mask>& by_rank,
                                      SweepCounters& stats,
                                      const ExecContext* ctx,
                                      std::atomic<bool>& aborted) {
  const int m = side.view.num_edges();
  const auto num_assignments =
      static_cast<std::uint64_t>(assignments.size());

  // Flat side adjacency (view translation hoisted out of the BFS).
  std::vector<NodeId> eu(static_cast<std::size_t>(m));
  std::vector<NodeId> ev(static_cast<std::size_t>(m));
  std::vector<std::uint8_t> undirected(static_cast<std::size_t>(m));
  bool unit_or_more = true;
  for (int e = 0; e < m; ++e) {
    const auto i = static_cast<std::size_t>(e);
    eu[i] = side.view.edge_u(e);
    ev[i] = side.view.edge_v(e);
    undirected[i] = side.view.edge_directed(e) ? 0 : 1;
    unit_or_more = unit_or_more && side.view.edge_capacity(e) >= 1;
  }

  // Side edges able to carry flow out of {S0, anchor} (source side),
  // resp. into {anchor, T1} (sink side) — the configuration-dependent
  // part of the anchor cut the popcount kernel bounds.
  std::vector<std::pair<int, Capacity>> anchor_edges;
  for (int e = 0; e < m; ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (eu[i] != side.anchor && ev[i] != side.anchor) continue;
    if (eu[i] == ev[i]) continue;  // self loop never crosses the cut
    const bool crosses =
        undirected[i] != 0 || (side.is_source_side ? eu[i] == side.anchor
                                                   : ev[i] == side.anchor);
    if (crosses) anchor_edges.emplace_back(e, side.view.edge_capacity(e));
  }

  std::vector<SlabAssignment> state(
      static_cast<std::size_t>(assignments.size()));
  for (int j = 0; j < assignments.size(); ++j) {
    SlabAssignment& a = state[static_cast<std::size_t>(j)];
    a.plan = plan_assignment_arcs(
        side, assignments.assignments[static_cast<std::size_t>(j)], d);
    a.connectivity = a.plan.required == 1 && unit_or_more;
    // Endpoint super arcs crossing the anchor cut regardless of the side
    // configuration: an endpoint AT the anchor crosses on its
    // demand-facing arc, every other endpoint on its supply-facing one.
    Capacity bypass = 0;
    for (std::size_t i = 0; i < side.endpoints.size(); ++i) {
      const bool at_anchor = side.endpoints[i] == side.anchor;
      if (side.is_source_side) {
        bypass += at_anchor ? a.plan.out_cap[i] : a.plan.in_cap[i];
      } else {
        bypass += at_anchor ? a.plan.in_cap[i] : a.plan.out_cap[i];
      }
      if (a.plan.in_cap[i] > 0) a.seeds.push_back(side.endpoints[i]);
      if (a.plan.out_cap[i] > 0) a.targets.push_back(side.endpoints[i]);
    }
    // The anchor arc's capacity (d >= 1) makes the anchor a
    // configuration-independent seed (source side) / target (sink side).
    if (side.is_source_side) {
      a.seeds.push_back(side.anchor);
    } else {
      a.targets.push_back(side.anchor);
    }
    a.cut_threshold = a.plan.required - bypass;
  }

  BitSlabs slabs(m);
  std::vector<std::uint64_t> reach(
      static_cast<std::size_t>(side.view.num_nodes()), 0);
  std::array<Mask, 64> realized{};
  // Per assignment, over the slab's lanes: the seed's YES floor (rule b)
  // and its old bits (rule c).
  std::array<std::uint64_t, kMaxMaskBits> floor_yes{};
  std::array<std::uint64_t, kMaxMaskBits> was_yes{};
  ProgressMarker progress(exec_progress(ctx));
  std::uint64_t sync_ops = 0;
  bool stopped = false;
  for (Mask base = first; base <= last; base += 64) {
    if (((base - first) & (ExecContext::kPollStride - 1)) == 0) {
      if (poll_stop(ctx, aborted)) {
        stopped = true;
        break;  // still collect engine counters below
      }
      progress.at(base - first);
    }
    const int lanes = static_cast<int>(std::min<Mask>(64, last - base + 1));
    const std::uint64_t valid = lanes == 64
                                    ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << lanes) - 1;
    realized.fill(0);
    // Seeded repair, rule (a): lanes in which every changed link is dead
    // see the pre-edit alive subgraph and keep the seed's masks. A
    // changed link >= 6 is dead across a whole slab or alive across it,
    // so whole slabs are copied without loading them.
    std::uint64_t carried = 0;
    if (seed) {
      const Mask* old = seed->old->by_rank.data() + base;
      const Mask g = gray_code(base);
      carried = valid;
      for (const int e : seed->changed) {
        carried &= ~(BitSlabs::low_pattern(e) ^
                     (test_bit(g, e) ? ~std::uint64_t{0} : 0));
      }
      stats.lanes_seed +=
          static_cast<std::uint64_t>(popcount(carried)) * num_assignments;
      if (carried == valid) {
        std::copy(old, old + lanes,
                  by_rank.begin() + static_cast<std::ptrdiff_t>(base));
        continue;
      }
      // Rules (b) and (c) for the other lanes. Max flow is monotone in
      // every capacity and in the alive set, so the configuration with
      // the lowered links dead — a rule-(a) configuration, whose seed
      // mask is exact — is a YES floor (with nothing lowered, it is the
      // configuration itself); with nothing raised, the seed's own mask
      // is a YES ceiling.
      std::fill_n(floor_yes.begin(), assignments.size(), 0);
      std::fill_n(was_yes.begin(), assignments.size(), 0);
      for (int L = 0; L < lanes; ++L) {
        const std::uint64_t lane = std::uint64_t{1} << L;
        if ((carried & lane) != 0) {
          realized[static_cast<std::size_t>(L)] = old[L];
          continue;
        }
        const Mask config = gray_code(base + static_cast<Mask>(L));
        const Mask floor = seed->lowered == 0
                               ? old[L]
                               : seed->old->at_config(config & ~seed->lowered);
        for (Mask rest = floor; rest != 0; rest &= rest - 1) {
          floor_yes[static_cast<std::size_t>(lowest_bit(rest))] |= lane;
        }
        if (!seed->any_raised) {
          for (Mask rest = old[L]; rest != 0; rest &= rest - 1) {
            was_yes[static_cast<std::size_t>(lowest_bit(rest))] |= lane;
          }
        }
      }
    }
    slabs.fill(base);
    for (int j = 0; j < assignments.size(); ++j) {
      SlabAssignment& a = state[static_cast<std::size_t>(j)];
      std::uint64_t undecided = valid & ~carried;
      std::uint64_t yes = 0;
      if (seed) {
        const auto i = static_cast<std::size_t>(j);
        yes = floor_yes[i] & undecided;
        const std::uint64_t no =
            seed->any_raised ? 0 : ~was_yes[i] & undecided;
        undecided &= ~(yes | no);
        stats.lanes_seed += static_cast<std::uint64_t>(popcount(yes | no));
      }

      if (a.connectivity) {
        // Feasibility == reachability: the BFS decides every lane of
        // the slab exactly, both YES and NO — no engine is ever needed.
        if (undecided != 0) {
          yes |= connected_lanes(slabs, eu, ev, undirected, a.seeds,
                                 a.targets, reach) &
                 undecided;
          stats.lanes_connectivity +=
              static_cast<std::uint64_t>(popcount(undecided));
          undecided = 0;
        }
      } else {
        for (std::size_t c = 0; c < a.bank.count && undecided != 0; ++c) {
          const WordCert& cert = a.bank.at(c);
          const std::uint64_t w = cert_decided_lanes(cert, slabs, undecided);
          if (cert.admits) yes |= w;
          undecided &= ~w;
          stats.lanes_certificate += static_cast<std::uint64_t>(popcount(w));
        }
        if (undecided != 0 && a.cut_threshold >= 1) {
          LaneTally tally(a.cut_threshold);
          for (const auto& [e, cap] : anchor_edges) {
            tally.add(slabs.word(e), std::min(cap, a.cut_threshold));
          }
          const std::uint64_t no_w =
              tally.less_than(a.cut_threshold) & undecided;
          undecided &= ~no_w;
          stats.lanes_popcount += static_cast<std::uint64_t>(popcount(no_w));
        }
        while (undecided != 0) {
          const int L = lowest_bit(undecided);
          const Mask config = gray_code(base + static_cast<Mask>(L));
          if (!a.engine) {
            // First residue lane of this assignment: build the engine
            // directly at `config` (the construction solve is the sync).
            a.engine = std::make_unique<GrayEngine>(side, a.plan, config);
          } else {
            ++sync_ops;
            STREAMREL_TRACE_SAMPLED_SPAN(mf_span, sync_ops, "maxflow_sync",
                                         "maxflow");
            a.engine->flow->sync_to(config);
            a.engine->refresh();
          }
          WordCert cert;
          cert.admits = a.engine->admits;
          cert.mask =
              cert.admits ? a.engine->support : (a.engine->cut & ~config);
          a.bank.push(cert);
          // The fresh certificate always covers its own lane (support
          // is alive at `config`; no cut edge dead at `config` is alive
          // there), so the loop strictly shrinks `undecided`.
          const std::uint64_t w = cert_decided_lanes(cert, slabs, undecided);
          if (cert.admits) yes |= w;
          undecided &= ~w;
          ++stats.scalar_residue;
          stats.lanes_certificate +=
              static_cast<std::uint64_t>(popcount(w)) - 1;
        }
      }
      for (std::uint64_t rest = yes; rest != 0; rest &= rest - 1) {
        realized[static_cast<std::size_t>(lowest_bit(rest))] |= bit(j);
      }
    }
    std::copy(realized.begin(), realized.begin() + lanes,
              by_rank.begin() + static_cast<std::ptrdiff_t>(base));
  }
  if (!stopped) progress.at(last - first + 1);
  for (const SlabAssignment& a : state) {
    if (a.engine) a.engine->collect(stats);
  }
}

/// The shard driver behind both builders: sweeps every configuration
/// and returns the array in Gray-rank order (SlabMaskTable::by_rank).
std::vector<Mask> sweep_by_rank(const SideProblem& side,
                                const AssignmentSet& assignments,
                                Capacity demand_rate,
                                const SideArrayOptions& options,
                                SideArrayStats* stats, const ExecContext* ctx,
                                const SeedRepair* seed) {
  if (!assignments.fits_mask()) {
    throw std::invalid_argument("assignment set too large for mask bits");
  }
  const int m = side.view.num_edges();
  const Mask total = Mask{1} << m;
  const bool scratch = options.sweep == SideSweepStrategy::kScratch;
  if (scratch) seed = nullptr;  // the oracle always sweeps in full

  TraceSpan sweep_span("build_side_array", "sweep");
  sweep_span.arg("side", side.is_source_side ? "s" : "t")
      .arg("links", static_cast<std::int64_t>(m))
      .arg("configs", static_cast<std::uint64_t>(total))
      .arg("strategy", scratch ? "scratch" : "bit_parallel");
  if (seed) {
    sweep_span.arg("seed_links",
                   static_cast<std::int64_t>(seed->changed.size()));
  }

  if (ProgressReporter* progress = exec_progress(ctx)) {
    progress->add_total(static_cast<std::uint64_t>(total));
  }

  std::vector<Mask> array(static_cast<std::size_t>(total), 0);
  SweepCounters local;
  std::atomic<bool> aborted{false};

  // `first`/`last` are configuration values on the scratch path and
  // Gray-code ranks on the slab path; either way the shards [0, total)
  // are covered exactly once, and both write `array` by rank.
  auto run = [&](Mask first, Mask last, SweepCounters& s) {
    if (scratch) {
      sweep_per_assignment(side, assignments, demand_rate, options.algorithm,
                           first, last, array, s, ctx, aborted);
    } else {
      sweep_per_assignment_bitparallel(side, assignments, demand_rate, first,
                                       last, seed, array, s, ctx, aborted);
    }
  };

  // A repair decides most pairs from its seed, so its shards span four
  // times as many ranks: each still carries about a full shard's work.
  const int shard_shift = seed ? 12 : 10;
#ifdef _OPENMP
  if (options.parallel && (total >> shard_shift) >= 1) {
    // Contiguous, Gray-aligned shards: each shard owns one rank range, so
    // its Gray walk is a single contiguous path. The shard geometry is
    // FIXED by the instance size and the seed's presence (never by the
    // thread count), so the per-shard counters — and their shard-order
    // merge below — are identical whether the sweep runs on 1 thread or
    // 64.
    const Mask shard_count =
        std::min<Mask>(Mask{32}, total >> shard_shift);
    const Mask chunk = total / shard_count;
    const int threads = static_cast<int>(std::min<Mask>(
        static_cast<Mask>(exec_resolved_threads(ctx)), shard_count));
    std::vector<SweepCounters> shard_stats(
        static_cast<std::size_t>(shard_count));
    std::vector<double> shard_ms(static_cast<std::size_t>(shard_count), 0.0);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(shard_count);
         ++i) {
      const Mask first = static_cast<Mask>(i) * chunk;
      const Mask last = static_cast<Mask>(i) + 1 == shard_count
                            ? total - 1
                            : first + chunk - 1;
      TraceSpan shard_span("side_sweep_shard", "sweep");
      shard_span.arg("shard", static_cast<std::int64_t>(i))
          .arg("ranks", static_cast<std::uint64_t>(last - first + 1));
      const auto t0 = std::chrono::steady_clock::now();
      run(first, last, shard_stats[static_cast<std::size_t>(i)]);
      shard_ms[static_cast<std::size_t>(i)] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
    if (aborted.load(std::memory_order_relaxed)) {
      throw ExecInterrupted{ctx->stop_status()};
    }
    for (const SweepCounters& s : shard_stats) local.merge(s);
    if (stats) {
      local.flush(stats->telemetry);
      // Shards run concurrently, so wall clock is the slowest shard (the
      // max), never the sum — the sum is the CPU view and gets its own
      // key. See Telemetry::merge_parallel for the same rule applied to
      // whole trees.
      double wall = 0.0;
      double cpu = 0.0;
      for (double t : shard_ms) {
        wall = std::max(wall, t);
        cpu += t;
      }
      stats->telemetry.timer_ms("sweep") += wall;
      stats->telemetry.timer_ms("sweep_cpu") += cpu;
    }
    return array;
  }
#endif

  {
    const auto t0 = std::chrono::steady_clock::now();
    run(0, total - 1, local);
    if (stats) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      stats->telemetry.timer_ms("sweep") += ms;
      stats->telemetry.timer_ms("sweep_cpu") += ms;
    }
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw ExecInterrupted{ctx->stop_status()};
  }
  if (stats) local.flush(stats->telemetry);
  return array;
}

}  // namespace

std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   const SideArrayOptions& options,
                                   SideArrayStats* stats,
                                   const ExecContext* ctx) {
  SlabMaskTable table;
  table.num_links = side.view.num_edges();
  table.by_rank = sweep_by_rank(side, assignments, demand_rate, options,
                                stats, ctx, nullptr);
  return config_form(table);
}

std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   const SideArrayOptions& options,
                                   std::uint64_t* maxflow_calls) {
  SideArrayStats stats;
  std::vector<Mask> array =
      build_side_array(side, assignments, demand_rate, options, &stats);
  if (maxflow_calls) *maxflow_calls += stats.maxflow_calls();
  return array;
}

int seed_changed_links(const SideProblem& side, const SideArraySeed& seed) {
  const std::optional<SeedRepair> plan = plan_seed_repair(side, seed);
  return plan ? static_cast<int>(plan->changed.size()) : -1;
}

SlabMaskTable build_side_array_slab(const SideProblem& side,
                                    const AssignmentSet& assignments,
                                    Capacity demand_rate,
                                    const SideArrayOptions& options,
                                    SideArrayStats* stats,
                                    const ExecContext* ctx,
                                    const SideArraySeed& seed) {
  const std::optional<SeedRepair> plan = plan_seed_repair(side, seed);
  SlabMaskTable table;
  table.num_links = side.view.num_edges();
  table.by_rank = sweep_by_rank(side, assignments, demand_rate, options,
                                stats, ctx, plan ? &*plan : nullptr);
  return table;
}

struct SideMaskEvaluator::Impl {
  Impl(const SideProblem& side, const AssignmentSet& assignments, Capacity d,
       MaxFlowAlgorithm algorithm)
      : eval(side, algorithm), set(&assignments), rate(d) {}

  SideEvaluator eval;
  const AssignmentSet* set;
  Capacity rate;
};

SideMaskEvaluator::SideMaskEvaluator(const SideProblem& side,
                                     const AssignmentSet& assignments,
                                     Capacity demand_rate,
                                     MaxFlowAlgorithm algorithm)
    : impl_(std::make_unique<Impl>(side, assignments, demand_rate,
                                   algorithm)) {
  if (!assignments.fits_mask()) {
    throw std::invalid_argument("assignment set too large for mask bits");
  }
}

SideMaskEvaluator::~SideMaskEvaluator() = default;
SideMaskEvaluator::SideMaskEvaluator(SideMaskEvaluator&&) noexcept = default;

Mask SideMaskEvaluator::realized(Mask config) {
  Mask out = 0;
  for (int j = 0; j < impl_->set->size(); ++j) {
    const Capacity required = impl_->eval.configure(
        impl_->set->assignments[static_cast<std::size_t>(j)], impl_->rate);
    ++calls_;
    if (impl_->eval.solve(config, required) >= required) out |= bit(j);
  }
  return out;
}

namespace {

// Accumulation table for (realized mask -> probability). Distinct masks
// are few (<= min(2^|E_side|, 2^|D|) and usually far fewer), so a flat
// power-of-two index with linear probing and Fibonacci hashing maps each
// mask to a dense bucket; the fold looks a mask up once per run of equal
// masks, not once per configuration. Each bucket is a compensated
// (TwoSum) sum of its run sums. Mask values never exceed 63 usable bits,
// so the all-ones key can act as EMPTY.
class FlatBucketTable {
 public:
  FlatBucketTable()
      : slot_keys_(kInitialSlots, kEmpty), slot_ids_(kInitialSlots) {}

  /// Dense index of `key`'s bucket; the first lookup creates it empty.
  std::size_t index(Mask key) {
    std::size_t i = slot(key);
    while (slot_keys_[i] != key) {
      if (slot_keys_[i] == kEmpty) return insert(key, i);
      i = (i + 1) & (slot_keys_.size() - 1);
    }
    return slot_ids_[i];
  }

  void add(std::size_t bucket, double p) noexcept {
    Sum& b = sums_[bucket];
    const double t = b.sum + p;
    const double p_part = t - b.sum;
    b.err += (b.sum - (t - p_part)) + (p - p_part);
    b.sum = t;
  }

  /// (mask, probability) pairs in ascending mask order.
  std::vector<std::pair<Mask, double>> sorted_entries() const {
    std::vector<std::pair<Mask, double>> out;
    out.reserve(masks_.size());
    for (std::size_t i = 0; i < masks_.size(); ++i) {
      out.emplace_back(masks_[i], sums_[i].sum + sums_[i].err);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr Mask kEmpty = ~Mask{0};
  static constexpr std::size_t kInitialSlots = 64;

  struct Sum {
    double sum = 0.0;
    double err = 0.0;  ///< exact rounding errors of the adds so far
  };

  std::size_t slot(Mask key) const noexcept {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }

  std::size_t insert(Mask key, std::size_t i) {
    const std::size_t id = masks_.size();
    masks_.push_back(key);
    sums_.emplace_back();
    slot_keys_[i] = key;
    slot_ids_[i] = id;
    if (masks_.size() * 10 >= slot_keys_.size() * 7) grow();
    return id;
  }

  void grow() {
    slot_keys_.assign(slot_keys_.size() * 2, kEmpty);
    slot_ids_.assign(slot_keys_.size(), 0);
    --shift_;
    for (std::size_t id = 0; id < masks_.size(); ++id) {
      std::size_t i = slot(masks_[id]);
      while (slot_keys_[i] != kEmpty) i = (i + 1) & (slot_keys_.size() - 1);
      slot_keys_[i] = masks_[id];
      slot_ids_[i] = id;
    }
  }

  std::vector<Mask> slot_keys_;
  std::vector<std::size_t> slot_ids_;
  int shift_ = 64 - std::countr_zero(kInitialSlots);
  std::vector<Mask> masks_;  ///< bucket masks, by dense index
  std::vector<Sum> sums_;
};

// Shared factored fold: walk the ranks in 64-rank slabs. For a
// 64-aligned base, gray_code(base + L) == gray_code(base) ^ gray_code(L)
// and gray_code(L) < 64, so a configuration's probability factors into
// the product over the high edges (>= 6), constant across the slab,
// times a low-edge product read from a 64-entry table. gray_code(base)
// & 63 is 0 or 32, so two lane-ordered copies of that table serve every
// slab. Within a slab, a run of equal masks sums its low factors and
// multiplies by the slab's high product once; the bucket table is
// touched only when the mask changes or the slab ends. No per-lane
// products, no hashing per configuration, no per-configuration Kahan
// add: `total` is a Kahan sum over the finished buckets. The walk order
// is fixed by the ranks, so every overload — config-indexed or
// slab-form — produces a bitwise identical distribution.
template <typename MaskAt>
MaskDistribution fold_ranks(int m, Mask n, std::span<const double> probs,
                            MaskAt&& mask_at) {
  // low[x]: product over the low edges of their states in x, multiplied
  // in ascending edge order (built by doubling, one multiply per entry).
  const int low_edges = std::min(m, 6);
  std::array<double, 64> low_by_config{};
  low_by_config[0] = 1.0;
  for (int e = 0; e < low_edges; ++e) {
    const double p = probs[static_cast<std::size_t>(e)];
    const std::size_t half = std::size_t{1} << e;
    for (std::size_t x = 0; x < half; ++x) {
      low_by_config[x | half] = low_by_config[x] * (1.0 - p);
      low_by_config[x] *= p;
    }
  }
  // lane_low[h][L] = low[gray_code(L) ^ (h << 5)]: h = 1 serves the slabs
  // whose base has bit 5 of its Gray code set.
  std::array<std::array<double, 64>, 2> lane_low{};
  for (Mask h = 0; h < 2; ++h) {
    for (Mask L = 0; L < 64; ++L) {
      lane_low[h][L] = low_by_config[(h << 5) ^ gray_code(L)];
    }
  }

  FlatBucketTable buckets;
  Mask run_mask = mask_at(0);
  std::size_t run_bucket = buckets.index(run_mask);
  Mask prev_mask = run_mask;
  std::size_t prev_bucket = run_bucket;
  for (Mask base = 0; base < n; base += 64) {
    const Mask g = gray_code(base);
    double high = 1.0;  // edges >= 6, ascending
    for (int e = low_edges; e < m; ++e) {
      const double p = probs[static_cast<std::size_t>(e)];
      high *= test_bit(g, e) ? 1.0 - p : p;
    }
    const std::array<double, 64>& low = lane_low[(g >> 5) & 1];
    const Mask lanes = std::min<Mask>(64, n - base);
    double run = 0.0;  // low factors of the current run within this slab
    for (Mask L = 0; L < lanes; ++L) {
      const Mask mask = mask_at(base + L);
      if (mask != run_mask) {
        buckets.add(run_bucket, high * run);
        // Masks often alternate between two values along the walk.
        std::swap(run_mask, prev_mask);
        std::swap(run_bucket, prev_bucket);
        if (mask != run_mask) {
          run_mask = mask;
          run_bucket = buckets.index(mask);
        }
        run = 0.0;
      }
      run += low[L];
    }
    buckets.add(run_bucket, high * run);
  }

  MaskDistribution dist;
  dist.buckets = buckets.sorted_entries();
  KahanSum total;
  for (const auto& bucket : dist.buckets) total.add(bucket.second);
  dist.total = total.value();
  return dist;
}

}  // namespace

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const std::vector<Mask>& array) {
  return bucket_side_array(side, array, side.view.failure_probs());
}

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const std::vector<Mask>& array,
                                   std::span<const double> probs) {
  const int m = side.view.num_edges();
  if (probs.size() != static_cast<std::size_t>(m)) {
    throw std::invalid_argument("one failure probability per side link");
  }
  return fold_ranks(m, static_cast<Mask>(array.size()), probs,
                    [&array](Mask rank) {
                      return array[static_cast<std::size_t>(gray_code(rank))];
                    });
}

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table) {
  return bucket_side_array(side, table, side.view.failure_probs());
}

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table,
                                   std::span<const double> probs) {
  const int m = side.view.num_edges();
  if (probs.size() != static_cast<std::size_t>(m)) {
    throw std::invalid_argument("one failure probability per side link");
  }
  return fold_ranks(
      m, static_cast<Mask>(table.by_rank.size()), probs, [&table](Mask rank) {
        return table.by_rank[static_cast<std::size_t>(rank)];
      });
}

}  // namespace streamrel
