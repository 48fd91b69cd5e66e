#include "streamrel/core/side_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "streamrel/graph/generators.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

struct Fig4Fixture {
  GeneratedNetwork g = make_fig4_graph();
  BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  FlowDemand demand{g.source, g.sink, 2};
  AssignmentSet assignments = enumerate_assignments(
      g.net, partition, 2, {AssignmentMode::kForwardOnly});
};

TEST(SideProblem, Fig4Shapes) {
  Fig4Fixture fx;
  const SideProblem side_s =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  EXPECT_TRUE(side_s.is_source_side);
  EXPECT_EQ(side_s.view.num_nodes(), 3);  // s, x1, x2
  EXPECT_EQ(side_s.view.num_edges(), 5);
  ASSERT_EQ(side_s.endpoints.size(), 2u);
  // Endpoint of edge 7 is x1 (original node 1), of edge 8 is x2 (node 2).
  EXPECT_EQ(side_s.view.original_node(side_s.endpoints[0]), 1);
  EXPECT_EQ(side_s.view.original_node(side_s.endpoints[1]), 2);

  const SideProblem side_t =
      make_side_problem(fx.g.net, fx.demand, fx.partition, false);
  EXPECT_FALSE(side_t.is_source_side);
  EXPECT_EQ(side_t.view.num_edges(), 2);
  EXPECT_EQ(side_t.view.original_node(side_t.anchor), 5);
}

TEST(SideArray, Fig4AssignmentSetIsThePaperTriple) {
  Fig4Fixture fx;
  ASSERT_EQ(fx.assignments.size(), 3);
  EXPECT_EQ(fx.assignments.assignments[0].usage, (std::vector<Capacity>{0, 2}));
  EXPECT_EQ(fx.assignments.assignments[1].usage, (std::vector<Capacity>{1, 1}));
  EXPECT_EQ(fx.assignments.assignments[2].usage, (std::vector<Capacity>{2, 0}));
}

TEST(SideArray, Fig5ConfigurationsRealizeTheStatedSets) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      build_side_array(side, fx.assignments, fx.demand.rate);
  const Fig5Configs configs = fig5_source_side_configs();
  // Assignment bit order: 0 = (0,2), 1 = (1,1), 2 = (2,0).
  EXPECT_EQ(array[static_cast<std::size_t>(configs.a)], mask_of({0, 1}))
      << "config (a) must realize {(1,1),(0,2)}";
  EXPECT_EQ(array[static_cast<std::size_t>(configs.b)], mask_of({1}))
      << "config (b) must realize {(1,1)}";
  EXPECT_EQ(array[static_cast<std::size_t>(configs.c)], mask_of({0, 1, 2}))
      << "config (c) must realize all three assignments";
}

TEST(SideArray, EmptyConfigurationRealizesNothing) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      build_side_array(side, fx.assignments, fx.demand.rate);
  EXPECT_EQ(array[0], 0u);
}

TEST(SideArray, SinkSideArrayFullConfigRealizesAll) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, false);
  const std::vector<Mask> array =
      build_side_array(side, fx.assignments, fx.demand.rate);
  ASSERT_EQ(array.size(), 4u);            // 2 sink-side links
  EXPECT_EQ(array[0b11], mask_of({0, 1, 2}));
  // Only y1-t alive: (2,0) sends both units through y1.
  EXPECT_EQ(array[0b01], mask_of({2}));
  // Only y2-t alive: (0,2) only.
  EXPECT_EQ(array[0b10], mask_of({0}));
  EXPECT_EQ(array[0b00], 0u);
}

TEST(SideArray, MaxflowCallCounterAdvances) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  std::uint64_t calls = 0;
  SideArrayOptions options;
  options.sweep = SideSweepStrategy::kScratch;
  build_side_array(side, fx.assignments, fx.demand.rate, options, &calls);
  // |D| * 2^{|E_s|} exactly, the paper's count.
  EXPECT_EQ(calls, 3u * 32u);
}

TEST(BucketDistribution, SumsToOneAndMatchesArray) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      build_side_array(side, fx.assignments, fx.demand.rate);
  const MaskDistribution dist = bucket_side_array(side, array);
  EXPECT_NEAR(dist.total, 1.0, 1e-12);
  double sum = 0.0;
  for (const auto& [mask, p] : dist.buckets) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Bucket masks are exactly the distinct array values.
  for (const auto& [mask, p] : dist.buckets) {
    EXPECT_NE(std::find(array.begin(), array.end(), mask), array.end());
  }
}

TEST(BucketDistributionStreamed, MatchesDirectFold) {
  Xoshiro256 rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    ClusteredParams params;
    params.nodes_s = 4 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_links = 2;
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const AssignmentSet assignments =
        enumerate_assignments(g.net, partition, 2, {AssignmentMode::kAuto});
    if (assignments.size() == 0) continue;
    const SideProblem side =
        make_side_problem(g.net, {g.source, g.sink, 2}, partition, true);
    const std::vector<Mask> array = build_side_array(side, assignments, 2);

    const MaskDistribution dist = bucket_side_array(side, array);
    // Reference fold: direct per-configuration products, numeric order.
    const std::vector<double> probs = side.view.failure_probs();
    std::unordered_map<Mask, double> reference;
    for (Mask config = 0; config < static_cast<Mask>(array.size());
         ++config) {
      reference[array[static_cast<std::size_t>(config)]] +=
          config_probability(probs, config);
    }
    ASSERT_EQ(dist.buckets.size(), reference.size()) << "trial " << trial;
    for (const auto& [mask, p] : dist.buckets) {
      ASSERT_TRUE(reference.count(mask));
      EXPECT_NEAR(p, reference[mask], 1e-12) << "trial " << trial;
    }
    EXPECT_NEAR(dist.total, 1.0, 1e-12);
  }
}

TEST(BucketDistributionStreamed, HandlesZeroFailureProbabilities) {
  // Perfect links make dead-configurations probability 0; the streamed
  // ratio update must not divide by zero.
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.0);  // perfect link
  net.add_undirected_edge(1, 2, 2, 0.25);
  net.add_undirected_edge(0, 1, 1, 0.0);  // second perfect link
  net.add_undirected_edge(1, 2, 1, 0.5);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 2, {true, true, false});
  const FlowDemand demand{0, 2, 1};
  const AssignmentSet assignments =
      enumerate_assignments(net, partition, 1, {AssignmentMode::kAuto});
  ASSERT_GT(assignments.size(), 0);
  const SideProblem side = make_side_problem(net, demand, partition, true);
  const std::vector<Mask> array = build_side_array(side, assignments, 1);
  const MaskDistribution dist = bucket_side_array(side, array);
  EXPECT_NEAR(dist.total, 1.0, 1e-12);
  for (const auto& [mask, p] : dist.buckets) EXPECT_GE(p, 0.0);
}

// The factored fold (per-slab high-edge product x 64-entry low-edge
// table, one bucket update per run of equal masks) against a direct
// per-configuration product reference, on sides of 0-20 links: fewer
// than 6, exactly 6, 7, several slabs and partial slabs. Edge 0 never
// fails, so every configuration with it dead has probability exactly 0;
// the bucket only such configurations realize must still be present.
TEST(BucketDistribution, FactoredFoldMatchesDirectProducts) {
  Xoshiro256 rng(20261019);
  constexpr Mask kDeadEdgeZeroMask = Mask{1} << 40;
  for (const int m : {0, 1, 3, 5, 6, 7, 8, 11, 13, 16, 20}) {
    // Source side: m parallel links 0-1; link 1-2 is the bottleneck.
    FlowNetwork net(3);
    for (int e = 0; e < m; ++e) {
      const double p = e == 0 ? 0.0 : rng.uniform_real(0.0, 0.5);
      net.add_undirected_edge(0, 1, 1, p);
    }
    net.add_undirected_edge(1, 2, 1, 0.1);
    const BottleneckPartition partition =
        partition_from_sides(net, 0, 2, {true, true, false});
    const SideProblem side =
        make_side_problem(net, {0, 2, 1}, partition, true);
    ASSERT_EQ(side.view.num_edges(), m);
    const std::vector<double> probs = side.view.failure_probs();

    // Masks depend on a few scattered links, so runs of equal masks
    // vary in length and cross slab boundaries.
    const Mask relevant = m == 0 ? 0 : (rng() & full_mask(m)) | bit(m - 1);
    std::vector<Mask> array(std::size_t{1} << m);
    for (Mask config = 0; config < array.size(); ++config) {
      const Mask key = config & relevant;
      Mask mask = (key * 0x9e3779b97f4a7c15ULL) >> 61;
      if (m > 0 && !test_bit(config, 0)) mask = kDeadEdgeZeroMask;
      array[static_cast<std::size_t>(config)] = mask;
    }

    std::map<Mask, double> reference;
    for (Mask config = 0; config < array.size(); ++config) {
      reference[array[static_cast<std::size_t>(config)]] +=
          config_probability(probs, config);
    }

    const MaskDistribution dist = bucket_side_array(side, array, probs);
    ASSERT_EQ(dist.buckets.size(), reference.size()) << "m " << m;
    auto ref = reference.begin();
    for (const auto& [mask, p] : dist.buckets) {
      ASSERT_EQ(mask, ref->first) << "m " << m;
      EXPECT_NEAR(p, ref->second, 1e-13) << "m " << m << " mask " << mask;
      ++ref;
    }
    EXPECT_NEAR(dist.total, 1.0, 1e-12) << "m " << m;
    if (m > 0) {
      const auto zero = std::find_if(
          dist.buckets.begin(), dist.buckets.end(),
          [&](const auto& b) { return b.first == kDeadEdgeZeroMask; });
      ASSERT_NE(zero, dist.buckets.end()) << "m " << m;
      EXPECT_EQ(zero->second, 0.0) << "m " << m;
    }

    // The slab-form overload shares the fold: bitwise equal.
    const MaskDistribution slab =
        bucket_side_array(side, slab_form(array, m), probs);
    EXPECT_EQ(slab.buckets, dist.buckets) << "m " << m;
    EXPECT_EQ(slab.total, dist.total) << "m " << m;
  }
}

TEST(SideArray, RejectsOversizedSide) {
  FlowNetwork net(3);
  for (int i = 0; i < 64; ++i) net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 2, {true, true, false});
  EXPECT_THROW(
      make_side_problem(net, {0, 2, 1}, partition, /*source_side=*/true),
      std::invalid_argument);
}

}  // namespace
}  // namespace streamrel
