#include "streamrel/maxflow/incremental_dinic.hpp"

#include <gtest/gtest.h>

#include "streamrel/graph/generators.hpp"
#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

TEST(IncrementalMaxFlow, StartsWithAllEdgesAlive) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.1);
  net.add_undirected_edge(1, 2, 2, 0.1);
  IncrementalMaxFlow inc(net, {0, 2, 2});
  EXPECT_TRUE(inc.admits());
  EXPECT_EQ(inc.flow_value(), 2);
}

TEST(IncrementalMaxFlow, DisableAndRestoreBridge) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  IncrementalMaxFlow inc(net, {0, 2, 1});
  EXPECT_TRUE(inc.admits());
  inc.set_edge_alive(0, false);
  EXPECT_FALSE(inc.admits());
  EXPECT_EQ(inc.flow_value(), 0);
  inc.set_edge_alive(0, true);
  EXPECT_TRUE(inc.admits());
}

TEST(IncrementalMaxFlow, ReroutesAroundRemovedEdge) {
  // Two disjoint s-t paths; killing one path's edge must keep admitting.
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 3, 1, 0.1);
  net.add_undirected_edge(0, 2, 1, 0.1);
  net.add_undirected_edge(2, 3, 1, 0.1);
  IncrementalMaxFlow inc(net, {0, 3, 1});
  EXPECT_TRUE(inc.admits());
  inc.set_edge_alive(0, false);
  EXPECT_TRUE(inc.admits());
  inc.set_edge_alive(2, false);
  EXPECT_FALSE(inc.admits());
  inc.set_edge_alive(0, true);
  EXPECT_TRUE(inc.admits());
}

TEST(IncrementalMaxFlow, ToggleIsIdempotent) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  IncrementalMaxFlow inc(net, {0, 1, 1});
  inc.set_edge_alive(0, true);  // no-op
  EXPECT_TRUE(inc.admits());
  inc.set_edge_alive(0, false);
  inc.set_edge_alive(0, false);  // no-op
  EXPECT_FALSE(inc.admits());
}

TEST(IncrementalMaxFlow, EdgeIncidentToSourceAndSink) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 3, 0.1);
  net.add_undirected_edge(0, 1, 3, 0.1);
  IncrementalMaxFlow inc(net, {0, 1, 5});
  EXPECT_TRUE(inc.admits());  // 6 >= 5
  inc.set_edge_alive(0, false);
  EXPECT_FALSE(inc.admits());
  EXPECT_EQ(inc.flow_value(), 3);
  inc.set_edge_alive(0, true);
  EXPECT_TRUE(inc.admits());
}

TEST(IncrementalMaxFlow, RejectsBadEdgeId) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  IncrementalMaxFlow inc(net, {0, 1, 1});
  EXPECT_THROW(inc.set_edge_alive(5, false), std::invalid_argument);
}

// The load-bearing property: arbitrary toggle sequences must always agree
// with a from-scratch bounded max-flow of the current configuration.
class IncrementalRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int, EdgeKind>> {};

TEST_P(IncrementalRandomTest, MatchesFromScratchUnderRandomToggles) {
  const auto [nodes, edges, kind] = GetParam();
  Xoshiro256 rng(mix_seed(static_cast<std::uint64_t>(nodes),
                          static_cast<std::uint64_t>(edges)));
  for (int trial = 0; trial < 25; ++trial) {
    // High-capacity trials exercise multi-unit repairs through the
    // fictitious value channel (including value-increasing deletions).
    const Capacity cap_hi = (trial % 3 == 0) ? 6 : 3;
    const GeneratedNetwork g =
        random_multigraph(rng, nodes, edges, {1, cap_hi}, {0.0, 0.4}, kind);
    const Capacity rate = rng.uniform_int(1, 2 * cap_hi);
    const FlowDemand demand{g.source, g.sink, rate};
    IncrementalMaxFlow inc(g.net, demand);
    Mask alive = full_mask(g.net.num_edges());
    for (int step = 0; step < 60; ++step) {
      const int e = static_cast<int>(rng.uniform_below(
          static_cast<std::uint64_t>(g.net.num_edges())));
      const bool to_alive = !test_bit(alive, e);
      alive ^= bit(e);
      inc.set_edge_alive(e, to_alive);
      const Capacity expect = max_flow_masked(g.net, alive, g.source, g.sink,
                                              MaxFlowAlgorithm::kDinic, rate);
      ASSERT_EQ(inc.flow_value(), expect)
          << "trial " << trial << " step " << step << " alive=" << alive;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IncrementalRandomTest,
    ::testing::Values(std::tuple{3, 6, EdgeKind::kUndirected},
                      std::tuple{5, 10, EdgeKind::kUndirected},
                      std::tuple{7, 14, EdgeKind::kUndirected},
                      std::tuple{3, 6, EdgeKind::kDirected},
                      std::tuple{5, 10, EdgeKind::kDirected},
                      std::tuple{7, 14, EdgeKind::kDirected}));

// ---------------------------------------------------------------------------
// External-mode IncrementalMaxFlow: the residue engine of the slab sweep.

Capacity scratch_bounded_flow(const FlowNetwork& net,
                              const std::vector<ConfigResidual::SuperArc>&
                                  super_caps,
                              NodeId extra_u, NodeId extra_v, Mask alive,
                              Capacity limit) {
  // Rebuilds the same residual layout from scratch and solves bounded.
  ConfigResidual fresh(net);
  const NodeId s0 = fresh.add_super_node();
  const NodeId t1 = fresh.add_super_node();
  fresh.add_super_arc(s0, extra_u, 0, 0);
  fresh.add_super_arc(extra_v, t1, 0, 0);
  for (std::size_t i = 0; i < super_caps.size(); ++i) {
    fresh.set_super_arc(i, super_caps[i].cap_uv, super_caps[i].cap_vu);
  }
  fresh.reset(alive);
  DinicSolver dinic;
  return dinic.solve(fresh.graph(), s0, t1, limit);
}

TEST(IncrementalMaxFlowExternal, RandomTogglesMatchScratch) {
  Xoshiro256 rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    const GeneratedNetwork g = random_multigraph(
        rng, 5, 10, {1, 4}, {0.05, 0.3},
        trial % 2 == 0 ? EdgeKind::kUndirected : EdgeKind::kDirected);
    const int m = g.net.num_edges();
    const Capacity target = rng.uniform_int(1, 6);

    ConfigResidual residual(g.net);
    const NodeId s0 = residual.add_super_node();
    const NodeId t1 = residual.add_super_node();
    residual.add_super_arc(s0, g.source, target, 0);
    residual.add_super_arc(g.sink, t1, target, 0);

    Mask alive = full_mask(m);
    IncrementalMaxFlow inc(residual, s0, t1, target, alive);
    const std::vector<ConfigResidual::SuperArc> caps{{0, target, 0},
                                                     {0, target, 0}};
    for (int step = 0; step < 50; ++step) {
      const int e = static_cast<int>(
          rng.uniform_below(static_cast<std::uint64_t>(m)));
      alive ^= bit(e);
      inc.set_edge_alive(e, test_bit(alive, e));
      const Capacity expect = scratch_bounded_flow(g.net, caps, g.source,
                                                   g.sink, alive, target);
      ASSERT_EQ(inc.flow_value(), expect)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(inc.alive_mask(), alive);
    }
  }
}

TEST(IncrementalMaxFlowExternal, SyncToJumpsAcrossManyBits) {
  Xoshiro256 rng(555);
  const GeneratedNetwork g =
      random_multigraph(rng, 6, 12, {1, 3}, {0.05, 0.3});
  const int m = g.net.num_edges();
  const Capacity target = 3;

  ConfigResidual residual(g.net);
  const NodeId s0 = residual.add_super_node();
  const NodeId t1 = residual.add_super_node();
  residual.add_super_arc(s0, g.source, target, 0);
  residual.add_super_arc(g.sink, t1, target, 0);
  IncrementalMaxFlow inc(residual, s0, t1, target, full_mask(m));
  const std::vector<ConfigResidual::SuperArc> caps{{0, target, 0},
                                                   {0, target, 0}};
  for (int step = 0; step < 40; ++step) {
    const Mask config = rng() & full_mask(m);
    inc.sync_to(config);
    const Capacity expect =
        scratch_bounded_flow(g.net, caps, g.source, g.sink, config, target);
    ASSERT_EQ(inc.flow_value(), expect) << "step " << step;
  }
}

TEST(IncrementalMaxFlowExternal, RejectsOversizedNetworks) {
  FlowNetwork big(3);
  for (int i = 0; i < 64; ++i) big.add_undirected_edge(0, 1, 1, 0.1);
  big.add_undirected_edge(1, 2, 1, 0.1);
  ConfigResidual residual(big);
  EXPECT_THROW(IncrementalMaxFlow(residual, 0, 2, 1, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace streamrel
