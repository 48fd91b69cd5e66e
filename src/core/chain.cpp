#include "streamrel/core/chain.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "streamrel/core/accumulate.hpp"
#include "streamrel/core/bottleneck_algorithm.hpp"
#include "streamrel/core/side_array.hpp"
#include "streamrel/graph/subgraph.hpp"
#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/stats.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

// Distribution over "reachable assignment subset" masks.
using StateMap = std::map<Mask, double>;

struct BoundaryInfo {
  BottleneckPartition partition;   ///< side_s == layers <= b
  AssignmentSet assignments;
  std::vector<double> failure_probs;  ///< of the crossing edges
};

// Relation arrays for one middle layer: per failure configuration of the
// layer's internal links, a mask over (left assignment, right assignment)
// pairs the layer can route simultaneously... pair (i, j) is realized iff
// the layer routes left assignment i's boundary flows into right
// assignment j's. Bit index: i * |D_right| + j.
MaskDistribution build_middle_distribution(
    const NetworkView& view, const std::vector<NodeId>& left_endpoints,
    const std::vector<NodeId>& right_endpoints, const AssignmentSet& d_left,
    const AssignmentSet& d_right, MaxFlowAlgorithm algorithm,
    std::uint64_t* maxflow_calls, const ExecContext* ctx) {
  const int pairs = d_left.size() * d_right.size();
  if (pairs > kMaxMaskBits) {
    throw std::invalid_argument(
        "chain decomposition: |D_left| * |D_right| exceeds 63");
  }
  if (!view.fits_mask()) {
    throw std::invalid_argument("chain layer exceeds 63 links");
  }

  ConfigResidual residual(view);
  const NodeId super_source = residual.add_super_node();
  const NodeId super_sink = residual.add_super_node();
  // Super-arc layout: per left endpoint an in/out pair, then per right
  // endpoint an in/out pair (caps set per assignment pair).
  for (NodeId ep : left_endpoints) {
    residual.add_super_arc(super_source, ep, 0, 0);
    residual.add_super_arc(ep, super_sink, 0, 0);
  }
  for (NodeId ep : right_endpoints) {
    residual.add_super_arc(super_source, ep, 0, 0);
    residual.add_super_arc(ep, super_sink, 0, 0);
  }
  auto solver = make_solver(algorithm);

  const Mask total_configs = Mask{1} << view.num_edges();
  TraceSpan span("middle_layer_sweep", "sweep");
  span.arg("links", static_cast<std::int64_t>(view.num_edges()))
      .arg("pairs", static_cast<std::int64_t>(pairs));
  if (ProgressReporter* reporter = exec_progress(ctx)) {
    reporter->add_total(static_cast<std::uint64_t>(total_configs) *
                        static_cast<std::uint64_t>(pairs));
  }
  ProgressMarker progress(exec_progress(ctx));
  std::uint64_t walked = 0;
  std::uint64_t calls = 0;
  std::vector<Mask> array(static_cast<std::size_t>(total_configs), 0);
  for (int i = 0; i < d_left.size(); ++i) {
    for (int j = 0; j < d_right.size(); ++j) {
      // Left usage > 0 enters this layer; right usage > 0 leaves it.
      Capacity required = 0;
      const auto& left =
          d_left.assignments[static_cast<std::size_t>(i)].usage;
      const auto& right =
          d_right.assignments[static_cast<std::size_t>(j)].usage;
      for (std::size_t e = 0; e < left.size(); ++e) {
        const Capacity u = left[e];
        const Capacity mag = u > 0 ? u : -u;
        residual.set_super_arc(2 * e, u > 0 ? mag : 0, 0);      // in
        residual.set_super_arc(2 * e + 1, u > 0 ? 0 : mag, 0);  // out
        if (u > 0) required += mag;
      }
      const std::size_t base = 2 * left.size();
      for (std::size_t e = 0; e < right.size(); ++e) {
        const Capacity u = right[e];
        const Capacity mag = u > 0 ? u : -u;
        residual.set_super_arc(base + 2 * e, u > 0 ? 0 : mag, 0);
        residual.set_super_arc(base + 2 * e + 1, u > 0 ? mag : 0, 0);
        if (u < 0) required += mag;
      }
      const int pair_bit = i * d_right.size() + j;
      for (Mask config = 0; config < total_configs; ++config) {
        if ((config & (ExecContext::kPollStride - 1)) == 0) {
          if (ctx) ctx->check();
          progress.at(walked);
        }
        ++walked;
        residual.reset(config);
        if (maxflow_calls) ++*maxflow_calls;
        ++calls;
        STREAMREL_TRACE_SAMPLED_SPAN(mf_span, calls, "maxflow", "maxflow");
        if (solver->solve(residual.graph(), super_source, super_sink,
                          required) >= required) {
          array[static_cast<std::size_t>(config)] |= bit(pair_bit);
        }
      }
    }
  }
  progress.at(walked);

  const ConfigProbTable probs(view.failure_probs());
  std::unordered_map<Mask, double> buckets;
  KahanSum total;
  for (Mask config = 0; config < total_configs; ++config) {
    const double p = probs.prob(config);
    buckets[array[static_cast<std::size_t>(config)]] += p;
    total.add(p);
  }
  MaskDistribution dist;
  dist.buckets.assign(buckets.begin(), buckets.end());
  std::sort(dist.buckets.begin(), dist.buckets.end());
  dist.total = total.value();
  return dist;
}

// Filters a state distribution through one boundary's 2^k link-failure
// configurations: each surviving assignment must be supported
// (Definition 1) by the alive links.
StateMap filter_boundary(const StateMap& state, const BoundaryInfo& boundary) {
  const ConfigProbTable probs(boundary.failure_probs);
  const Mask total = Mask{1}
                     << boundary.partition.k();
  StateMap out;
  for (Mask alive = 0; alive < total; ++alive) {
    const double p = probs.prob(alive);
    const Mask allowed = boundary.assignments.supported_by(alive);
    for (const auto& [mask, q] : state) {
      out[mask & allowed] += p * q;
    }
  }
  return out;
}

// Pushes a state over D_left through a middle layer's relation
// distribution, producing a state over D_right.
StateMap apply_middle(const StateMap& state, const MaskDistribution& middle,
                      int d_right_size) {
  const Mask right_full = full_mask(d_right_size);
  StateMap out;
  for (const auto& [set_mask, q] : state) {
    for (const auto& [relation, w] : middle.buckets) {
      Mask reachable = 0;
      Mask rest = set_mask;
      while (rest != 0) {
        const int i = lowest_bit(rest);
        rest &= rest - 1;
        reachable |=
            (relation >> (i * d_right_size)) & right_full;
      }
      out[reachable] += q * w;
    }
  }
  return out;
}

}  // namespace

ReliabilityResult reliability_chain(const FlowNetwork& net,
                                    const FlowDemand& demand,
                                    const std::vector<int>& layer,
                                    const ChainOptions& options,
                                    const ExecContext* ctx) {
  net.check_demand(demand);
  if (layer.size() != static_cast<std::size_t>(net.num_nodes())) {
    throw std::invalid_argument("layer vector size mismatch");
  }
  const int num_layers =
      1 + *std::max_element(layer.begin(), layer.end());
  if (num_layers < 2) {
    throw std::invalid_argument("chain needs >= 2 layers");
  }
  for (int l : layer) {
    if (l < 0) throw std::invalid_argument("negative layer index");
  }
  if (layer[static_cast<std::size_t>(demand.source)] != 0 ||
      layer[static_cast<std::size_t>(demand.sink)] != num_layers - 1) {
    throw std::invalid_argument(
        "source must sit in layer 0, sink in the last layer");
  }
  for (const Edge& e : net.edges()) {
    const int du = layer[static_cast<std::size_t>(e.u)];
    const int dv = layer[static_cast<std::size_t>(e.v)];
    if (du != dv && du != dv + 1 && dv != du + 1) {
      throw std::invalid_argument(
          "edges must be layer-internal or join consecutive layers");
    }
  }

  ReliabilityResult result;

  // Boundary partitions and assignment sets.
  std::vector<BoundaryInfo> boundaries;
  boundaries.reserve(static_cast<std::size_t>(num_layers - 1));
  for (int b = 0; b + 1 < num_layers; ++b) {
    std::vector<bool> side(static_cast<std::size_t>(net.num_nodes()));
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      side[static_cast<std::size_t>(n)] =
          layer[static_cast<std::size_t>(n)] <= b;
    }
    BoundaryInfo info{
        partition_from_sides(net, demand.source, demand.sink, std::move(side)),
        {},
        {}};
    info.assignments = enumerate_assignments(net, info.partition, demand.rate,
                                             options.assignments);
    for (EdgeId id : info.partition.crossing_edges) {
      info.failure_probs.push_back(net.edge(id).failure_prob);
    }
    boundaries.push_back(std::move(info));
  }
  for (const BoundaryInfo& b : boundaries) {
    if (b.assignments.size() == 0) return result;  // a boundary is too thin
  }

  // One frozen snapshot backs the side problems and every per-layer view.
  const std::shared_ptr<const CompiledNetwork> snapshot = net.compile();

  // Per-layer zero-copy views and boundary endpoints (in view ids).
  auto layer_view = [&](int l) {
    std::vector<bool> in(static_cast<std::size_t>(net.num_nodes()));
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      in[static_cast<std::size_t>(n)] =
          layer[static_cast<std::size_t>(n)] == l;
    }
    return NetworkView(snapshot, in);
  };
  auto endpoints_in_layer = [&](const BoundaryInfo& b, int l,
                                const NetworkView& view) {
    std::vector<NodeId> eps;
    for (EdgeId id : b.partition.crossing_edges) {
      const Edge& e = net.edge(id);
      const NodeId orig =
          layer[static_cast<std::size_t>(e.u)] == l ? e.u : e.v;
      eps.push_back(view.view_node(orig));
    }
    return eps;
  };

  const SideArrayOptions side_opts{options.algorithm, /*parallel=*/true};

  SideArrayStats side_stats;  // aggregated over the two side builds
  std::uint64_t middle_calls = 0;
  std::uint64_t configurations = 0;
  try {
    // Source-side state: layer 0's array over D_0.
    const SideProblem first_side = make_side_problem(
        snapshot, demand, boundaries.front().partition, /*source_side=*/true);
    const std::vector<Mask> first_array =
        build_side_array(first_side, boundaries.front().assignments,
                         demand.rate, side_opts, &side_stats, ctx);
    configurations += first_array.size();
    StateMap state;
    for (const auto& [mask, p] :
         bucket_side_array(first_side, first_array).buckets) {
      state[mask] += p;
    }

    for (std::size_t b = 0; b < boundaries.size(); ++b) {
      if (ctx) ctx->check();
      state = filter_boundary(state, boundaries[b]);
      if (b + 1 < boundaries.size()) {
        const int l = static_cast<int>(b) + 1;
        const NetworkView view = layer_view(l);
        const auto left = endpoints_in_layer(boundaries[b], l, view);
        const auto right = endpoints_in_layer(boundaries[b + 1], l, view);
        const MaskDistribution middle = build_middle_distribution(
            view, left, right, boundaries[b].assignments,
            boundaries[b + 1].assignments, options.algorithm, &middle_calls,
            ctx);
        configurations += Mask{1} << view.num_edges();
        state = apply_middle(state, middle,
                             boundaries[b + 1].assignments.size());
      }
    }

    // Sink-side finish: last layer's array over D_{last}.
    const SideProblem last_side = make_side_problem(
        snapshot, demand, boundaries.back().partition, /*source_side=*/false);
    const std::vector<Mask> last_array =
        build_side_array(last_side, boundaries.back().assignments,
                         demand.rate, side_opts, &side_stats, ctx);
    configurations += last_array.size();
    const MaskDistribution final_dist =
        bucket_side_array(last_side, last_array);

    KahanSum total;
    for (const auto& [set_mask, q] : state) {
      if (set_mask == 0) continue;
      for (const auto& [mt, w] : final_dist.buckets) {
        if (set_mask & mt) total.add(q * w);
      }
    }
    result.reliability = total.value();
  } catch (const ExecInterrupted& stop) {
    result.status = stop.status;
    result.reliability = 0.0;
  }
  result.telemetry.merge(side_stats.telemetry);
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) += middle_calls;
  result.telemetry.counter(telemetry_keys::kConfigurations) += configurations;
  return result;
}

std::vector<int> layers_from_cuts(
    const FlowNetwork& net, NodeId s, NodeId t,
    const std::vector<std::vector<EdgeId>>& ordered_cuts) {
  if (!net.valid_node(s) || !net.valid_node(t)) {
    throw std::invalid_argument("bad endpoints");
  }
  std::vector<int> layer(static_cast<std::size_t>(net.num_nodes()), 0);
  for (const auto& cut : ordered_cuts) {
    const auto part = partition_from_cut_edges(net, s, t, cut);
    if (!part) {
      throw std::invalid_argument("a cut does not separate s from t");
    }
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      if (!part->side_s[static_cast<std::size_t>(n)]) {
        layer[static_cast<std::size_t>(n)]++;
      }
    }
  }
  return layer;
}

}  // namespace streamrel
