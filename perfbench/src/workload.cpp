#include "workload.hpp"

#include <iterator>
#include <stdexcept>
#include <utility>

namespace perfbench {

using namespace streamrel;

WorkloadSpec workload_spec(std::string_view name) {
  WorkloadSpec spec;
  spec.name = std::string(name);
  if (name == "point_queries") {
    // Many small tenants; solves are cheap, so the serving path shows.
    spec.tenants = 16;
    spec.links_s = 8;
    spec.links_t = 8;
    spec.bulk_share = 0.1;
    spec.closed_inflight = 8;
  } else if (name == "whatif_mixed") {
    // Big source clusters: every query folds 2^16 configurations; bulk
    // batches hold the tenant's writer lock while interactive solves and
    // metrics scrapes queue behind them.
    spec.tenants = 4;
    spec.links_s = 16;
    spec.links_t = 6;
    spec.bulk_share = 0.1;
    spec.batch_queries = 16;
    spec.scrape_every_ms = 100.0;
    spec.closed_inflight = 4;
  } else if (name == "churn_journal") {
    // Writes beside reads: cut-scoped invalidation, one-side rebuilds,
    // new cut searches after topology edits, and a journal append each.
    spec.tenants = 4;
    spec.links_s = 14;
    spec.links_t = 14;
    spec.mixed_demand = true;
    spec.bulk_share = 0.1;
    spec.delta_share = 0.25;
    spec.durable = true;
    spec.closed_inflight = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return spec;
}

namespace {

constexpr std::uint64_t kShapeSeed = 0x5eedf011;

/// Cluster parameters for `links` links: a spanning tree on
/// links/2 + 1 nodes plus the remaining links as extra edges.
void cluster_shape(int links, int* nodes, int* extra) {
  *nodes = links / 2 + 1;
  *extra = links - (*nodes - 1);
}

}  // namespace

std::vector<Tenant> make_tenants(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<Tenant> tenants;
  tenants.reserve(static_cast<std::size_t>(spec.tenants));
  for (int i = 0; i < spec.tenants; ++i) {
    // Tenant i has the same overlay shape (links, capacities, demand) in
    // every run, so the work one request costs does not swing with the
    // seed; the seed draws every failure probability and the traffic.
    Xoshiro256 shape_rng(kShapeSeed + static_cast<std::uint64_t>(i));
    ClusteredParams params;
    cluster_shape(spec.links_s, &params.nodes_s, &params.extra_edges_s);
    cluster_shape(spec.links_t, &params.nodes_t, &params.extra_edges_t);
    params.bottleneck_links = spec.bottleneck_links;
    params.bottleneck_caps = {2, 3};
    GeneratedNetwork g = clustered_bottleneck(shape_rng, params);
    Xoshiro256 prob_rng(seed * std::uint64_t{1000003} +
                        static_cast<std::uint64_t>(i));
    for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
      g.net.set_failure_prob(e, prob_rng.uniform_real(0.05, 0.2));
    }

    Tenant t;
    t.name = "tenant" + std::to_string(i);
    t.network_text = network_to_string(g.net);
    t.base = read_network_from_string(t.network_text).net;
    const Capacity rate = spec.mixed_demand && i % 2 == 1 ? 3 : 2;
    t.demand = FlowDemand{g.source, g.sink, rate};
    t.original_edges = t.base.num_edges();
    for (EdgeId e = 0; e < t.base.num_edges(); ++e) {
      const Edge& edge = t.base.edge(e);
      if (g.side_s[static_cast<std::size_t>(edge.u)] ==
          g.side_s[static_cast<std::size_t>(edge.v)]) {
        t.cluster_edges.push_back(e);
        t.cluster_caps.push_back(edge.capacity);
      }
    }
    t.live_caps = t.cluster_caps;
    t.next_parallel = prob_rng.uniform_below(t.cluster_edges.size());
    tenants.push_back(std::move(t));
  }
  return tenants;
}

namespace {

std::vector<ProbOverride> draw_overrides(const Tenant& tenant,
                                         Xoshiro256& rng) {
  std::vector<ProbOverride> out(1 + rng.uniform_below(2));
  for (ProbOverride& o : out) {
    o.edge = static_cast<EdgeId>(
        rng.uniform_below(static_cast<std::uint64_t>(tenant.original_edges)));
    o.failure_prob = rng.uniform_real(0.02, 0.5);
  }
  return out;
}

/// One tenant's edits come in shuffled cycles of ten: one topology edit,
/// six capacity edits and three probability edits.
constexpr int kEditCycle[] = {0, 1, 1, 1, 1, 1, 1, 2, 2, 2};

/// Capacity edits toggle a cluster link between its registered capacity
/// and one more; probability edits redraw a link's failure probability;
/// topology edits add a parallel cluster link, and the next one removes
/// it again (it is always the last edge id, so no other id moves).
NetworkDelta draw_delta(Tenant& tenant, Xoshiro256& rng) {
  NetworkDelta delta;
  std::vector<int>& deck = tenant.edit_deck;
  if (deck.empty()) {
    deck.assign(std::begin(kEditCycle), std::end(kEditCycle));
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.uniform_below(i)]);
    }
  }
  const int kind = deck.back();
  deck.pop_back();
  if (kind == 0) {
    if (tenant.parallel_link != kInvalidEdge) {
      delta.remove_edge(tenant.parallel_link);
      tenant.parallel_link = kInvalidEdge;
    } else {
      const std::size_t pick =
          tenant.next_parallel++ % tenant.cluster_edges.size();
      const Edge& twin = tenant.base.edge(tenant.cluster_edges[pick]);
      delta.add_edge(twin.u, twin.v, 1, 0.1);
      tenant.parallel_link = static_cast<EdgeId>(tenant.original_edges);
    }
  } else if (kind == 1) {
    const std::size_t pick = rng.uniform_below(tenant.cluster_edges.size());
    Capacity& live = tenant.live_caps[pick];
    live = live == tenant.cluster_caps[pick] ? live + 1
                                             : tenant.cluster_caps[pick];
    delta.set_capacity(tenant.cluster_edges[pick], live);
  } else {
    delta.set_failure_prob(
        static_cast<EdgeId>(rng.uniform_below(
            static_cast<std::uint64_t>(tenant.original_edges))),
        rng.uniform_real(0.02, 0.3));
  }
  return delta;
}

WireRequest envelope(WireVerb verb, const Tenant& tenant, std::uint64_t id,
                     bool traced) {
  WireRequest req;
  req.verb = verb;
  req.id_json = std::to_string(id);
  req.tenant = tenant.name;
  req.want_trace = traced;
  req.want_telemetry = traced;
  return req;
}

}  // namespace

Request next_request(const WorkloadSpec& spec, Tenant& tenant,
                     Xoshiro256& rng, std::uint64_t id, bool traced) {
  Request out;
  const double u = rng.uniform01();
  if (u < spec.delta_share) {
    out.kind = RequestKind::kDelta;
    WireRequest req = envelope(WireVerb::kApplyDelta, tenant, id, traced);
    req.delta = draw_delta(tenant, rng);
    tenant.deltas.push_back(req.delta);
    out.line = serialize_wire_request(req);
    return out;
  }
  out.bulk = u < spec.delta_share + spec.bulk_share;
  if (out.bulk && spec.batch_queries > 0) {
    out.kind = RequestKind::kBatch;
    WireRequest req = envelope(WireVerb::kBatch, tenant, id, traced);
    req.lane = WireLane::kBulk;
    req.deadline_ms = kRequestDeadlineMs;
    req.queries.resize(static_cast<std::size_t>(spec.batch_queries));
    for (WireQuery& q : req.queries) q.overrides = draw_overrides(tenant, rng);
    out.line = serialize_wire_request(req);
    return out;
  }
  out.kind = RequestKind::kSolve;
  WireRequest req = envelope(WireVerb::kSolve, tenant, id, traced);
  req.lane = out.bulk ? WireLane::kBulk : WireLane::kInteractive;
  req.deadline_ms = kRequestDeadlineMs;
  out.overrides = draw_overrides(tenant, rng);
  req.query.overrides = out.overrides;
  out.line = serialize_wire_request(req);
  return out;
}

std::string register_line(const Tenant& tenant, std::uint64_t id) {
  WireRequest req = envelope(WireVerb::kRegisterNetwork, tenant, id, false);
  req.network_text = tenant.network_text;
  req.query.source = tenant.demand.source;
  req.query.sink = tenant.demand.sink;
  req.query.rate = tenant.demand.rate;
  return serialize_wire_request(req);
}

std::string plain_solve_line(const Tenant& tenant, std::uint64_t id) {
  return serialize_wire_request(
      envelope(WireVerb::kSolve, tenant, id, false));
}

std::string control_line(WireVerb verb, std::uint64_t id) {
  WireRequest req;
  req.verb = verb;
  req.id_json = std::to_string(id);
  return serialize_wire_request(req);
}

}  // namespace perfbench
