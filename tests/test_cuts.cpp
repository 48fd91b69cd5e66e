#include <gtest/gtest.h>

#include <algorithm>

#include "streamrel/cuts/bottleneck.hpp"
#include "streamrel/cuts/cut_enumeration.hpp"
#include "streamrel/cuts/partition_search.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/graph/graph_algos.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/util/bitops.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

/// Reference enumeration: the exhaustive subset scan that defines the
/// result order and the caps of enumerate_minimal_cutsets. It tests every
/// subset of size lower..max_size in Gosper order, where lower is the
/// min-cardinality cut value.
std::vector<std::vector<EdgeId>> scan_minimal_cutsets(
    const FlowNetwork& net, NodeId s, NodeId t,
    const CutEnumerationOptions& options) {
  std::vector<std::vector<EdgeId>> out;
  const auto lower = static_cast<int>(min_cardinality_cut(net, s, t).value);
  if (lower == 0) return out;  // already disconnected: no cut is minimal

  std::uint64_t examined = 0;
  for (int k = lower; k <= options.max_size; ++k) {
    for (CombinationRange combos(net.num_edges(), k); !combos.done();
         combos.next()) {
      if (++examined > options.max_subsets_examined ||
          out.size() >= options.max_results) {
        return out;
      }
      const std::vector<int> ids = bits_of(combos.value());
      std::vector<EdgeId> cut(ids.begin(), ids.end());
      if (is_minimal_cutset(net, s, t, cut)) out.push_back(std::move(cut));
    }
  }
  return out;
}

TEST(PartitionFromSides, ComputesCrossingEdges) {
  const GeneratedNetwork g = make_fig4_graph();
  const BottleneckPartition p =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_EQ(p.crossing_edges, (std::vector<EdgeId>{7, 8}));
  EXPECT_EQ(p.k(), 2);
}

TEST(PartitionFromSides, ValidatesEndpoints) {
  const GeneratedNetwork g = make_fig4_graph();
  std::vector<bool> wrong(g.side_s);
  wrong[static_cast<std::size_t>(g.source)] = false;
  EXPECT_THROW(partition_from_sides(g.net, g.source, g.sink, wrong),
               std::invalid_argument);
  EXPECT_THROW(partition_from_sides(g.net, g.source, g.sink, {true, false}),
               std::invalid_argument);
}

TEST(PartitionFromCutEdges, RecoversPlantedBridge) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  const auto part = partition_from_cut_edges(g.net, g.source, g.sink, {8});
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->crossing_edges, std::vector<EdgeId>{8});
  EXPECT_EQ(part->side_s, g.side_s);
}

TEST(PartitionFromCutEdges, NonSeparatingSetReturnsNullopt) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  EXPECT_FALSE(partition_from_cut_edges(g.net, g.source, g.sink, {0}));
  EXPECT_FALSE(partition_from_cut_edges(g.net, g.source, g.sink, {}));
}

TEST(PartitionFromCutEdges, DropsRedundantEdgesFromCrossing) {
  // Giving the bridge plus an S-internal edge: the partition keeps only
  // the true crossing edge.
  const GeneratedNetwork g = make_fig2_bridge_graph();
  const auto part = partition_from_cut_edges(g.net, g.source, g.sink, {8, 0});
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->crossing_edges, std::vector<EdgeId>{8});
}

TEST(PartitionFromCutEdges, BalancesFloatingComponents) {
  // Path s - a - t plus an isolated pair {b, c}: removing the two path
  // edges leaves 4 components. The middle node and the floating pair get
  // assigned to the source side by the balance heuristic, so edge 0
  // becomes side-internal and the crossing set SHRINKS to the single
  // genuinely separating edge.
  FlowNetwork net(5);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  net.add_undirected_edge(3, 4, 1, 0.1);
  const auto part = partition_from_cut_edges(net, 0, 2, {0, 1});
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->crossing_edges, (std::vector<EdgeId>{1}));
  EXPECT_TRUE(removal_disconnects(net, 0, 2, part->crossing_edges));
}

TEST(AnalyzePartition, Fig4Stats) {
  const GeneratedNetwork g = make_fig4_graph();
  const BottleneckPartition p =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const PartitionStats stats = analyze_partition(g.net, g.source, g.sink, p);
  EXPECT_EQ(stats.k, 2);
  EXPECT_EQ(stats.edges_s, 5);
  EXPECT_EQ(stats.edges_t, 2);
  EXPECT_DOUBLE_EQ(stats.alpha, 5.0 / 9.0);
  EXPECT_TRUE(stats.minimal);
  EXPECT_TRUE(stats.two_components);
  EXPECT_EQ(stats.crossing_capacity, 4);
}

TEST(IsMinimalCutset, DetectsNonMinimal) {
  const GeneratedNetwork g = make_fig4_graph();
  EXPECT_TRUE(is_minimal_cutset(g.net, g.source, g.sink, {7, 8}));
  // Adding an extra edge breaks minimality.
  EXPECT_FALSE(is_minimal_cutset(g.net, g.source, g.sink, {7, 8, 4}));
  // A non-separating set is not a cut at all.
  EXPECT_FALSE(is_minimal_cutset(g.net, g.source, g.sink, {7}));
}

TEST(CutEnumeration, FindsAllMinimalCutsOnPath) {
  const GeneratedNetwork g = path_network(3, 1, 0.1);
  const auto cuts = enumerate_minimal_cutsets(g.net, g.source, g.sink);
  // Each single path edge is a minimal cut; no larger set is minimal.
  ASSERT_EQ(cuts.size(), 3u);
  for (const auto& cut : cuts) EXPECT_EQ(cut.size(), 1u);
}

TEST(CutEnumeration, DiamondHasSizeTwoCuts) {
  // s-a, s-b, a-t, b-t: minimal cuts are the 4 "one edge per path" pairs.
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(0, 2, 1, 0.1);
  net.add_undirected_edge(1, 3, 1, 0.1);
  net.add_undirected_edge(2, 3, 1, 0.1);
  const auto cuts = enumerate_minimal_cutsets(net, 0, 3);
  EXPECT_EQ(cuts.size(), 4u);
  for (const auto& cut : cuts) {
    EXPECT_EQ(cut.size(), 2u);
    EXPECT_TRUE(is_minimal_cutset(net, 0, 3, cut));
  }
}

TEST(CutEnumeration, RespectsMaxSize) {
  const GeneratedNetwork g = parallel_links(4, 1, 0.1);
  CutEnumerationOptions opts;
  opts.max_size = 3;
  EXPECT_TRUE(enumerate_minimal_cutsets(g.net, g.source, g.sink, opts).empty());
  opts.max_size = 4;
  const auto cuts = enumerate_minimal_cutsets(g.net, g.source, g.sink, opts);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0].size(), 4u);
}

TEST(CutEnumeration, DisconnectedInputYieldsNothing) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_TRUE(enumerate_minimal_cutsets(net, 0, 2).empty());
}

TEST(CutEnumeration, ResultsComeInGosperOrder) {
  // Routes s-a-t (edges 0, 1) and s-b-t (edges 2, 3): the four size-2
  // cuts sorted by mask value put {1,2} = 6 before {0,3} = 9, where a
  // lexicographic order would not.
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);  // 0: s-a
  net.add_undirected_edge(1, 3, 1, 0.1);  // 1: a-t
  net.add_undirected_edge(0, 2, 1, 0.1);  // 2: s-b
  net.add_undirected_edge(2, 3, 1, 0.1);  // 3: b-t
  const auto cuts = enumerate_minimal_cutsets(net, 0, 3);
  const std::vector<std::vector<EdgeId>> expected{
      {0, 2}, {1, 2}, {0, 3}, {1, 3}};
  EXPECT_EQ(cuts, expected);
}

/// One oracle instance: a network with its demand endpoints.
struct OracleCase {
  FlowNetwork net;
  NodeId s = 0;
  NodeId t = 0;
  const char* shape = "";
};

NodeId pick(Xoshiro256& rng, int n) {
  return static_cast<NodeId>(
      rng.uniform_below(static_cast<std::uint64_t>(n)));
}

/// Random edges between distinct nodes of [0, nodes); kind chosen per
/// edge from `directed_share` (0 = undirected, 1 = directed).
void add_random_edges(FlowNetwork& net, Xoshiro256& rng, int nodes, int edges,
                      double directed_share) {
  for (int i = 0; i < edges; ++i) {
    NodeId u = pick(rng, nodes);
    NodeId v = pick(rng, nodes);
    while (v == u) v = pick(rng, nodes);
    net.add_edge(u, v, 1, 0.1,
                 rng.bernoulli(directed_share) ? EdgeKind::kDirected
                                               : EdgeKind::kUndirected);
  }
}

/// Cycles through the shapes the oracle comparison covers: undirected,
/// directed and mixed multigraphs (parallel edges arise freely and are
/// also planted), sparse graphs with more than 64 nodes, s adjacent to t,
/// t unreachable from s, and two-cluster bottleneck overlays.
OracleCase oracle_case(Xoshiro256& rng, int index) {
  OracleCase c;
  const int nodes = 3 + pick(rng, 6);
  switch (index % 7) {
    case 0:
    case 1:
    case 2: {
      static const char* const kShapes[] = {"undirected", "directed", "mixed"};
      static const double kDirected[] = {0.0, 1.0, 0.5};
      c.shape = kShapes[index % 7];
      c.net = FlowNetwork(nodes);
      add_random_edges(c.net, rng, nodes, nodes + pick(rng, 8),
                       kDirected[index % 7]);
      // Plant a parallel copy of one edge.
      const Edge e = c.net.edge(pick(rng, c.net.num_edges()));
      c.net.add_edge(e.u, e.v, 1, 0.1, e.kind);
      c.s = 0;
      c.t = nodes - 1;
      break;
    }
    case 3: {
      // More than 64 nodes, at most 63 edges: a random s-t route through
      // a few hub nodes, side branches, and many isolated nodes.
      c.shape = "sparse-many-nodes";
      const int total = 65 + pick(rng, 40);
      c.net = FlowNetwork(total);
      c.s = pick(rng, total);
      do c.t = pick(rng, total); while (c.t == c.s);
      std::vector<NodeId> hubs{c.s};
      const int inner = 4 + pick(rng, 8);
      for (int i = 0; i < inner; ++i) hubs.push_back(pick(rng, total));
      hubs.push_back(c.t);
      for (std::size_t i = 1; i < hubs.size(); ++i) {
        if (hubs[i] != hubs[i - 1]) {
          c.net.add_edge(hubs[i - 1], hubs[i], 1, 0.1,
                         rng.bernoulli(0.3) ? EdgeKind::kDirected
                                            : EdgeKind::kUndirected);
        }
      }
      const int extra = 10 + pick(rng, 40);
      for (int i = 0; i < extra && c.net.num_edges() < kMaxMaskBits; ++i) {
        const NodeId u = hubs[static_cast<std::size_t>(
            pick(rng, static_cast<int>(hubs.size())))];
        NodeId v = rng.bernoulli(0.5)
                       ? hubs[static_cast<std::size_t>(
                             pick(rng, static_cast<int>(hubs.size())))]
                       : pick(rng, total);
        if (v == u) continue;
        c.net.add_edge(u, v, 1, 0.1,
                       rng.bernoulli(0.2) ? EdgeKind::kDirected
                                          : EdgeKind::kUndirected);
      }
      break;
    }
    case 4: {
      c.shape = "s-adjacent-t";
      c.net = FlowNetwork(nodes);
      add_random_edges(c.net, rng, nodes, nodes + pick(rng, 6), 0.3);
      c.s = 0;
      c.t = nodes - 1;
      for (int i = 0; i < 1 + pick(rng, 2); ++i) {
        c.net.add_undirected_edge(c.s, c.t, 1, 0.1);
      }
      break;
    }
    case 5: {
      // t unreachable: either isolated, or every link at t points away.
      c.shape = "t-unreachable";
      c.net = FlowNetwork(nodes + 1);
      add_random_edges(c.net, rng, nodes, nodes + pick(rng, 6), 0.3);
      c.s = 0;
      c.t = nodes;
      if (rng.bernoulli(0.5)) c.net.add_directed_edge(c.t, c.s, 1, 0.1);
      break;
    }
    default: {
      c.shape = "two-cluster";
      ClusteredParams params;
      params.nodes_s = 3 + pick(rng, 4);
      params.nodes_t = 3 + pick(rng, 4);
      params.extra_edges_s = pick(rng, 5);
      params.extra_edges_t = pick(rng, 5);
      params.bottleneck_links = 1 + pick(rng, 3);
      if (rng.bernoulli(0.3)) params.kind = EdgeKind::kDirected;
      GeneratedNetwork g = clustered_bottleneck(rng, params);
      c.net = std::move(g.net);
      c.s = g.source;
      c.t = g.sink;
      break;
    }
  }
  return c;
}

/// Subsets the scan would examine at most for sizes 1..max_size.
std::uint64_t scan_size(int m, int max_size) {
  std::uint64_t total = 0;
  for (int k = 1; k <= max_size; ++k) {
    std::uint64_t c = 1;
    for (int j = 0; j < k; ++j) {
      c = c * static_cast<std::uint64_t>(std::max(m - j, 0)) /
          static_cast<std::uint64_t>(j + 1);
    }
    total += c;
  }
  return total;
}

// Keeps the reference scan affordable on the large instances; the
// search must honour whatever cap it is given.
constexpr std::uint64_t kOracleBudget = 4'000;

/// Mirror of find_candidate_partitions built on the reference scan.
std::vector<PartitionChoice> reference_candidates(
    const FlowNetwork& net, NodeId s, NodeId t,
    const PartitionSearchOptions& options) {
  std::vector<PartitionChoice> candidates;
  auto consider = [&](const std::vector<EdgeId>& cut) {
    auto part = partition_from_cut_edges(net, s, t, cut);
    if (!part) return;
    PartitionStats stats = analyze_partition(net, s, t, *part);
    if (stats.k > options.max_k) return;
    if (std::max(stats.edges_s, stats.edges_t) > options.max_side_edges) {
      return;
    }
    for (const PartitionChoice& existing : candidates) {
      if (existing.partition.side_s == part->side_s) return;
    }
    candidates.push_back(PartitionChoice{std::move(*part), stats});
  };
  for (EdgeId bridge : find_bridges(net)) consider({bridge});
  const MinCut cardinality_cut = min_cardinality_cut(net, s, t);
  if (cardinality_cut.value > 0) consider(cardinality_cut.edges);
  CutEnumerationOptions enum_opts = options.enumeration;
  enum_opts.max_size = std::min(enum_opts.max_size, options.max_k);
  for (const auto& cut : scan_minimal_cutsets(net, s, t, enum_opts)) {
    consider(cut);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const PartitionChoice& a, const PartitionChoice& b) {
              const int side_a = std::max(a.stats.edges_s, a.stats.edges_t);
              const int side_b = std::max(b.stats.edges_s, b.stats.edges_t);
              if (side_a != side_b) return side_a < side_b;
              return a.stats.k < b.stats.k;
            });
  return candidates;
}

TEST(CutEnumeration, MatchesTheSubsetScanOracle) {
  Xoshiro256 rng(20260417);
  int compared = 0;
  int results_cap_bound = 0;
  int subset_cap_bound = 0;
  int nonempty = 0;
  int many_nodes = 0;
  for (int index = 0; index < 210; ++index) {
    const OracleCase c = oracle_case(rng, index);
    ASSERT_LE(c.net.num_edges(), kMaxMaskBits);
    if (c.net.num_nodes() > 64) ++many_nodes;
    const int m = c.net.num_edges();
    for (int max_size = 1; max_size <= 6; ++max_size) {
      SCOPED_TRACE(::testing::Message() << "case " << index << " (" << c.shape
                                        << ", " << m << " edges), max_size "
                                        << max_size);
      CutEnumerationOptions full;
      full.max_size = max_size;
      full.max_subsets_examined =
          std::min<std::uint64_t>(full.max_subsets_examined, kOracleBudget);
      const auto expected = scan_minimal_cutsets(c.net, c.s, c.t, full);
      ASSERT_EQ(enumerate_minimal_cutsets(c.net, c.s, c.t, full), expected);
      if (!expected.empty()) ++nonempty;

      CutEnumerationOptions few_results = full;
      few_results.max_results = 1 + rng.uniform_below(3);
      const auto capped_results =
          scan_minimal_cutsets(c.net, c.s, c.t, few_results);
      ASSERT_EQ(enumerate_minimal_cutsets(c.net, c.s, c.t, few_results),
                capped_results);
      if (capped_results.size() < expected.size()) ++results_cap_bound;

      CutEnumerationOptions few_subsets = full;
      few_subsets.max_subsets_examined =
          1 + rng.uniform_below(std::max<std::uint64_t>(
                  1, std::min(scan_size(m, max_size), kOracleBudget)));
      const auto capped_subsets =
          scan_minimal_cutsets(c.net, c.s, c.t, few_subsets);
      ASSERT_EQ(enumerate_minimal_cutsets(c.net, c.s, c.t, few_subsets),
                capped_subsets);
      if (capped_subsets.size() < expected.size()) ++subset_cap_bound;
      compared += 3;
    }

    // The partition search built on the enumeration keeps its choices.
    PartitionSearchOptions search;
    search.enumeration.max_subsets_examined = kOracleBudget;
    search.max_side_edges = 64;
    const auto got = find_candidate_partitions(c.net, c.s, c.t, search);
    const auto want = reference_candidates(c.net, c.s, c.t, search);
    ASSERT_EQ(got.size(), want.size()) << "case " << index;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].partition.side_s, want[i].partition.side_s);
      EXPECT_EQ(got[i].partition.crossing_edges,
                want[i].partition.crossing_edges);
      EXPECT_EQ(got[i].stats.k, want[i].stats.k);
      EXPECT_EQ(got[i].stats.edges_s, want[i].stats.edges_s);
      EXPECT_EQ(got[i].stats.edges_t, want[i].stats.edges_t);
      EXPECT_EQ(got[i].stats.minimal, want[i].stats.minimal);
      EXPECT_EQ(got[i].stats.two_components, want[i].stats.two_components);
      EXPECT_EQ(got[i].stats.alpha, want[i].stats.alpha);
      EXPECT_EQ(got[i].stats.crossing_capacity,
                want[i].stats.crossing_capacity);
    }
  }
  EXPECT_EQ(compared, 210 * 6 * 3);
  // The sample exercises what it claims to.
  EXPECT_GE(many_nodes, 25);
  EXPECT_GE(nonempty, 500);
  EXPECT_GE(results_cap_bound, 100);
  EXPECT_GE(subset_cap_bound, 100);
}

TEST(CutEnumeration, SubsetCapDropsDeepCutsOnA63EdgeChain) {
  // Fifteen diamonds in series (60 edges, each diamond contributing four
  // size-2 cuts) followed by a triple of parallel links (one size-3 cut,
  // edges 60..62): 63 edges in all.
  FlowNetwork net(47);
  for (NodeId d = 0; d < 15; ++d) {
    const NodeId in = 3 * d;
    net.add_undirected_edge(in, in + 1, 1, 0.1);
    net.add_undirected_edge(in, in + 2, 1, 0.1);
    net.add_undirected_edge(in + 1, in + 3, 1, 0.1);
    net.add_undirected_edge(in + 2, in + 3, 1, 0.1);
  }
  for (int i = 0; i < 3; ++i) net.add_undirected_edge(45, 46, 1, 0.1);
  ASSERT_EQ(net.num_edges(), kMaxMaskBits);

  CutEnumerationOptions opts;
  opts.max_size = 3;
  const auto all = enumerate_minimal_cutsets(net, 0, 46, opts);
  EXPECT_EQ(all, scan_minimal_cutsets(net, 0, 46, opts));
  ASSERT_EQ(all.size(), 61u);
  EXPECT_EQ(all.back(), (std::vector<EdgeId>{60, 61, 62}));

  // The scan examines C(63, 2) = 1953 pairs before any triple, and the
  // triple's colex rank is 39710, so a 2000-subset cap drops it.
  opts.max_subsets_examined = 2000;
  const auto capped = enumerate_minimal_cutsets(net, 0, 46, opts);
  EXPECT_EQ(capped, scan_minimal_cutsets(net, 0, 46, opts));
  ASSERT_EQ(capped.size(), 60u);
  EXPECT_EQ(capped.back().size(), 2u);
}

TEST(PartitionSearch, PicksThePlantedBridge) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  const auto choice = find_best_partition(g.net, g.source, g.sink);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->partition.crossing_edges, std::vector<EdgeId>{8});
  EXPECT_EQ(choice->stats.k, 1);
  EXPECT_EQ(choice->stats.edges_s, 4);
  EXPECT_EQ(choice->stats.edges_t, 4);
}

TEST(PartitionSearch, PrefersBalanceOverCardinality) {
  const GeneratedNetwork g = make_fig4_graph();
  const auto choice = find_best_partition(g.net, g.source, g.sink);
  ASSERT_TRUE(choice.has_value());
  // The planted (5|2)-split with k=2 beats anything skinnier.
  EXPECT_LE(std::max(choice->stats.edges_s, choice->stats.edges_t), 5);
}

TEST(PartitionSearch, HonoursSideLimit) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  PartitionSearchOptions opts;
  opts.max_side_edges = 3;  // both diamond sides have 4 links
  EXPECT_FALSE(find_best_partition(g.net, g.source, g.sink, opts));
}

TEST(PartitionSearch, FindsCutsOnRandomClusteredGraphs) {
  Xoshiro256 rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    ClusteredParams params;
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const auto choice = find_best_partition(g.net, g.source, g.sink);
    ASSERT_TRUE(choice.has_value()) << "trial " << trial;
    // The search may prefer a wider cut with better balance than the
    // planted one, but it must stay within its own limits.
    EXPECT_LE(choice->stats.k, PartitionSearchOptions{}.max_k);
    // The found partition genuinely separates the demand endpoints.
    EXPECT_TRUE(removal_disconnects(g.net, g.source, g.sink,
                                    choice->partition.crossing_edges));
  }
}

}  // namespace
}  // namespace streamrel
