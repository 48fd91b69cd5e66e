#include "streamrel/core/bottleneck_algorithm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "streamrel/core/reliability_facade.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/reliability/factoring.hpp"
#include "streamrel/reliability/naive.hpp"
#include "test_support.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

using testing::kTol;

TEST(Bottleneck, Fig2BridgeMatchesNaiveAndEquationOne) {
  const GeneratedNetwork g = make_fig2_bridge_graph(0.15);
  const FlowDemand demand{g.source, g.sink, 1};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const double naive = reliability_naive(g.net, demand).reliability;
  const BottleneckResult result =
      reliability_bottleneck(g.net, demand, partition);
  EXPECT_NEAR(result.reliability, naive, kTol);
  EXPECT_NEAR(reliability_bridge_formula(g.net, demand, 8), naive, kTol);
  EXPECT_EQ(result.num_assignments, 1);
  EXPECT_EQ(result.partition_stats.k, 1);
}

TEST(Bottleneck, Fig4MatchesNaive) {
  const GeneratedNetwork g = make_fig4_graph(0.2);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const BottleneckResult result =
      reliability_bottleneck(g.net, demand, partition);
  EXPECT_NEAR(result.reliability,
              reliability_naive(g.net, demand).reliability, kTol);
  EXPECT_EQ(result.num_assignments, 3);  // the paper's D
}

TEST(Bottleneck, Fig4NaiveEquationOneStyleProductWouldBeWrong) {
  // Example 3's point: multiplying side reliabilities as in Eq. (1)
  // mishandles overlapping assignments. Check the wrong formula really is
  // wrong here, i.e. our algorithm is not secretly that product.
  const GeneratedNetwork g = make_fig4_graph(0.2);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  // "Wrong" product: P_s(route 2 units to the cut) * P(both bottleneck
  // links up) * P_t(route 2 units from the cut).
  const SideProblem ss = make_side_problem(g.net, demand, partition, true);
  const SideProblem st = make_side_problem(g.net, demand, partition, false);
  const AssignmentSet assignments =
      enumerate_assignments(g.net, partition, 2, {});
  const auto as = build_side_array(ss, assignments, 2);
  const auto at = build_side_array(st, assignments, 2);
  const MaskDistribution ds = bucket_side_array(ss, as);
  const MaskDistribution dt = bucket_side_array(st, at);
  double p_s_any = 0.0, p_t_any = 0.0;
  for (const auto& [m, p] : ds.buckets) {
    if (m != 0) p_s_any += p;
  }
  for (const auto& [m, p] : dt.buckets) {
    if (m != 0) p_t_any += p;
  }
  const double wrong = p_s_any * (1 - 0.2) * (1 - 0.2) * p_t_any;
  const double right = reliability_naive(g.net, demand).reliability;
  EXPECT_GT(std::abs(wrong - right), 1e-3);
}

TEST(Bottleneck, InsufficientCrossingCapacityGivesZero) {
  const GeneratedNetwork g = make_fig4_graph(0.1);
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const BottleneckResult result =
      reliability_bottleneck(g.net, {g.source, g.sink, 5}, partition);
  EXPECT_DOUBLE_EQ(result.reliability, 0.0);
  EXPECT_EQ(result.num_assignments, 0);
}

TEST(Bottleneck, ValidatesPartitionAndDemand) {
  const GeneratedNetwork g = make_fig4_graph(0.1);
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_THROW(
      reliability_bottleneck(g.net, {g.sink, g.source, 1}, partition),
      std::invalid_argument);
  BottleneckPartition broken = partition;
  broken.side_s.pop_back();
  EXPECT_THROW(reliability_bottleneck(g.net, {g.source, g.sink, 1}, broken),
               std::invalid_argument);
}

TEST(BridgeFormula, ZeroCapacityBridgeShortCircuits) {
  GeneratedNetwork g = make_fig2_bridge_graph(0.1);
  g.net.set_capacity(8, 0);
  EXPECT_DOUBLE_EQ(reliability_bridge_formula(g.net, {g.source, g.sink, 1}, 8),
                   0.0);
}

TEST(BridgeFormula, RejectsNonBridge) {
  const GeneratedNetwork g = make_fig2_bridge_graph(0.1);
  EXPECT_THROW(reliability_bridge_formula(g.net, {g.source, g.sink, 1}, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property suite: the decomposition must agree with BOTH independent exact
// baselines on randomized clustered instances (paper Fig. 6 / experiment E9).
// ---------------------------------------------------------------------------

struct PropertyCase {
  int k;
  Capacity d;
  EdgeKind kind;
  AssignmentMode mode;
};

class BottleneckPropertyTest : public ::testing::TestWithParam<PropertyCase> {
};

TEST_P(BottleneckPropertyTest, AgreesWithNaiveAndFactoring) {
  const PropertyCase pc = GetParam();
  Xoshiro256 rng(mix_seed(static_cast<std::uint64_t>(pc.k),
                          static_cast<std::uint64_t>(pc.d) * 131 +
                              (pc.kind == EdgeKind::kDirected ? 7 : 0)));
  int evaluated = 0;
  for (int trial = 0; trial < 40 && evaluated < 25; ++trial) {
    ClusteredParams params;
    params.nodes_s = static_cast<int>(rng.uniform_int(3, 5));
    params.nodes_t = static_cast<int>(rng.uniform_int(3, 5));
    params.extra_edges_s = static_cast<int>(rng.uniform_int(0, 3));
    params.extra_edges_t = static_cast<int>(rng.uniform_int(0, 3));
    params.bottleneck_links = pc.k;
    params.cluster_caps = {1, 3};
    params.bottleneck_caps = {1, 3};
    params.cluster_probs = {0.05, 0.5};
    params.bottleneck_probs = {0.05, 0.5};
    params.kind = pc.kind;
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const FlowDemand demand{g.source, g.sink, pc.d};
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);

    BottleneckOptions options;
    options.assignments.mode = pc.mode;
    const double decomposed =
        reliability_bottleneck(g.net, demand, partition, options).reliability;
    const double naive = reliability_naive(g.net, demand).reliability;
    const double factored = reliability_factoring(g.net, demand).reliability;
    ASSERT_NEAR(decomposed, naive, 1e-9)
        << "trial " << trial << " vs naive";
    ASSERT_NEAR(decomposed, factored, 1e-9)
        << "trial " << trial << " vs factoring";
    ++evaluated;
  }
  EXPECT_GT(evaluated, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BottleneckPropertyTest,
    ::testing::Values(
        // Undirected graphs, the paper's forward-only model. Exact for
        // k <= 2 on these seeds; k = 3 instances exist where it
        // under-counts (see ForwardOnlyIsOnlyALowerBound below), which is
        // why kAuto resolves undirected partitions to kSigned.
        PropertyCase{1, 1, EdgeKind::kUndirected, AssignmentMode::kForwardOnly},
        PropertyCase{2, 1, EdgeKind::kUndirected, AssignmentMode::kForwardOnly},
        PropertyCase{2, 2, EdgeKind::kUndirected, AssignmentMode::kForwardOnly},
        // Undirected, signed mode: exact everywhere (ablation E14).
        PropertyCase{2, 2, EdgeKind::kUndirected, AssignmentMode::kSigned},
        PropertyCase{3, 2, EdgeKind::kUndirected, AssignmentMode::kSigned},
        PropertyCase{3, 3, EdgeKind::kUndirected, AssignmentMode::kSigned},
        PropertyCase{3, 2, EdgeKind::kUndirected, AssignmentMode::kAuto},
        PropertyCase{3, 3, EdgeKind::kUndirected, AssignmentMode::kAuto},
        // Directed clustered graphs (crossing arcs all point S->T, so
        // forward-only is exact and kAuto picks it).
        PropertyCase{2, 1, EdgeKind::kDirected, AssignmentMode::kAuto},
        PropertyCase{2, 2, EdgeKind::kDirected, AssignmentMode::kAuto},
        PropertyCase{3, 2, EdgeKind::kDirected, AssignmentMode::kAuto}),
    [](const ::testing::TestParamInfo<PropertyCase>& param_info) {
      const PropertyCase& pc = param_info.param;
      std::string name = "k" + std::to_string(pc.k) + "_d" +
                         std::to_string(pc.d) + "_";
      name += pc.kind == EdgeKind::kDirected ? "dir" : "und";
      name += pc.mode == AssignmentMode::kSigned
                  ? "_signed"
                  : (pc.mode == AssignmentMode::kAuto ? "_auto" : "_fwd");
      return name;
    });

// The paper's forward-only model on undirected k = 3 bottlenecks: always
// a LOWER bound on the true reliability, and strictly below it on some
// instances (the optimal routing crosses the bottleneck backward). This
// is the empirical justification for kAuto resolving to kSigned.
TEST(BottleneckForwardOnly, ForwardOnlyIsOnlyALowerBound) {
  Xoshiro256 rng(mix_seed(3, 2 * 131));  // the seed that exposed the gap
  int strict_gaps = 0;
  for (int trial = 0; trial < 25; ++trial) {
    ClusteredParams params;
    params.nodes_s = static_cast<int>(rng.uniform_int(3, 5));
    params.nodes_t = static_cast<int>(rng.uniform_int(3, 5));
    params.extra_edges_s = static_cast<int>(rng.uniform_int(0, 3));
    params.extra_edges_t = static_cast<int>(rng.uniform_int(0, 3));
    params.bottleneck_links = 3;
    params.cluster_caps = {1, 3};
    params.bottleneck_caps = {1, 3};
    params.cluster_probs = {0.05, 0.5};
    params.bottleneck_probs = {0.05, 0.5};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const FlowDemand demand{g.source, g.sink, 2};
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    BottleneckOptions options;
    options.assignments.mode = AssignmentMode::kForwardOnly;
    const double forward =
        reliability_bottleneck(g.net, demand, partition, options).reliability;
    const double naive = reliability_naive(g.net, demand).reliability;
    ASSERT_LE(forward, naive + 1e-9) << "trial " << trial;
    if (forward < naive - 1e-6) ++strict_gaps;
  }
  EXPECT_GT(strict_gaps, 0)
      << "expected at least one instance where forward-only under-counts";
}

// Directed graphs with DELIBERATE backward crossing arcs: forward-only
// under-counts, signed mode stays exact (the soundness refinement in
// DESIGN.md).
TEST(BottleneckSigned, BackwardArcGraphNeedsSignedMode) {
  // A directed graph where the max flow MUST cross the bipartition
  // backward: the second unit travels s -> y1 (forward), y1 -> x2
  // (BACKWARD into the source side), x2 -> t (forward again).
  //   S side: {s, x2} (no internal links); T side: {y1, t}.
  //   Crossing: s->y1 (cap 2), y1->x2 (cap 1, backward), x2->t (cap 1).
  //   T-internal: y1->t (cap 1).
  FlowNetwork net(4);
  const NodeId s = 0, x2 = 1, y1 = 2, t = 3;
  net.add_directed_edge(s, y1, 2, 0.1);   // 0 crossing, forward
  net.add_directed_edge(y1, t, 1, 0.1);   // 1 T-internal
  net.add_directed_edge(y1, x2, 1, 0.1);  // 2 crossing, BACKWARD
  net.add_directed_edge(x2, t, 1, 0.1);   // 3 crossing, forward
  const FlowDemand demand{s, t, 2};
  ASSERT_EQ(max_flow(net, s, t), 2);  // needs the backward crossing
  const BottleneckPartition partition =
      partition_from_sides(net, s, t, {true, true, false, false});
  ASSERT_EQ(partition.k(), 3);

  const double naive = reliability_naive(net, demand).reliability;
  ASSERT_GT(naive, 0.0);

  // The paper's forward-only model cannot express the loop and
  // under-counts on this input.
  BottleneckOptions forward_opts;
  forward_opts.assignments.mode = AssignmentMode::kForwardOnly;
  EXPECT_LT(reliability_bottleneck(net, demand, partition, forward_opts)
                .reliability,
            naive - 1e-6);

  // Signed assignments restore exactness.
  BottleneckOptions signed_opts;
  signed_opts.assignments.mode = AssignmentMode::kSigned;
  EXPECT_NEAR(reliability_bottleneck(net, demand, partition, signed_opts)
                  .reliability,
              naive, kTol);

  // kAuto detects the backward arc and lands on signed by itself.
  const BottleneckResult auto_result =
      reliability_bottleneck(net, demand, partition, {});
  EXPECT_EQ(auto_result.mode_used, AssignmentMode::kSigned);
  EXPECT_NEAR(auto_result.reliability, naive, kTol);
}

class BottleneckStrategyMatrixTest
    : public ::testing::TestWithParam<AccumulationStrategy> {};

TEST_P(BottleneckStrategyMatrixTest, EveryConfigurationAgreesOnFig4) {
  const GeneratedNetwork g = make_fig4_graph(0.25);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  BottleneckOptions options;
  options.accumulation = GetParam();
  options.assignments.mode = AssignmentMode::kForwardOnly;
  EXPECT_NEAR(
      reliability_bottleneck(g.net, demand, partition, options).reliability,
      reliability_naive(g.net, demand).reliability, kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BottleneckStrategyMatrixTest,
    ::testing::Values(AccumulationStrategy::kPaperInclusionExclusion,
                      AccumulationStrategy::kZetaTransform,
                      AccumulationStrategy::kBucketProduct));

TEST(Bottleneck, OversizedSidesReportTheLimitClearly) {
  // 130 total links split 64/64/2: naive enumeration is impossible
  // (> 63 links) and even the per-side sweeps exceed the 63-bit masks,
  // so the size guard must report kMaskOverflow before any enumeration
  // rather than silently shifting past the mask width.
  Xoshiro256 rng(99);
  ClusteredParams params;
  params.nodes_s = 25;
  params.nodes_t = 25;
  params.extra_edges_s = 40;  // 24 tree edges + 40 extras = 64 per side
  params.extra_edges_t = 40;
  params.bottleneck_links = 2;
  params.cluster_probs = {0.01, 0.05};
  params.bottleneck_probs = {0.01, 0.05};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  ASSERT_EQ(g.net.num_edges(), 130);
  ASSERT_FALSE(g.net.fits_mask());
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const BottleneckResult result =
      reliability_bottleneck(g.net, {g.source, g.sink, 1}, partition);
  EXPECT_EQ(result.status, SolveStatus::kMaskOverflow);
  EXPECT_EQ(result.reliability, 0.0);
  // Direct misuse of the side-problem builder is still a usage error.
  EXPECT_THROW(
      make_side_problem(g.net, {g.source, g.sink, 1}, partition, true),
      std::invalid_argument);
}

TEST(Bottleneck, AutoFallsThroughToFrontierOnMaskOverflow) {
  // A 130-link path: every s-t cut leaves >= 64 links on one side, so
  // every candidate partition overflows the 63-bit masks. An explicit
  // kBottleneck request reports the capability limit as a status; the
  // kAuto chain treats it as "pick another method" and moves on to the
  // frontier DP, which handles paths of any length exactly.
  FlowNetwork net;
  constexpr int kLinks = 130;
  constexpr double kFail = 0.02;
  const NodeId first = net.add_node();
  NodeId prev = first;
  for (int i = 0; i < kLinks; ++i) {
    const NodeId next = net.add_node();
    net.add_edge(prev, next, 1, kFail, EdgeKind::kUndirected);
    prev = next;
  }
  const FlowDemand demand{first, prev, 1};

  SolveOptions options;
  options.use_reductions = false;  // keep the path from series-reducing away
  // Let the candidate search hand oversized sides to the engine; the
  // engine itself must then report the mask-width ceiling.
  options.partition_search.max_side_edges = 2 * kLinks;
  options.method = Method::kBottleneck;
  const SolveReport direct = compute_reliability(net, demand, options);
  EXPECT_EQ(direct.result.status, SolveStatus::kMaskOverflow);

  options.method = Method::kAuto;
  const SolveReport report = compute_reliability(net, demand, options);
  EXPECT_EQ(report.result.status, SolveStatus::kExact);
  EXPECT_EQ(report.engine, "frontier");
  EXPECT_NEAR(report.result.reliability, std::pow(1.0 - kFail, kLinks), kTol);
}

TEST(Bottleneck, HandlesNetworksBeyondTheNaiveMaskLimit) {
  // 66 total links split 32/32/2: the whole network exceeds the 63-link
  // naive mask limit, but each side fits, so the decomposition is the
  // only exact mask-based algorithm that can run at all. Cross-check
  // against factoring (which has no mask limit).
  Xoshiro256 rng(7);
  ClusteredParams params;
  params.nodes_s = 17;
  params.nodes_t = 17;
  params.extra_edges_s = 16;  // 16 tree edges + 16 extras = 32 per side
  params.extra_edges_t = 16;
  params.bottleneck_links = 2;
  params.cluster_probs = {0.0, 0.02};
  params.bottleneck_probs = {0.0, 0.02};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  ASSERT_EQ(g.net.num_edges(), 66);
  ASSERT_FALSE(g.net.fits_mask());
  const FlowDemand demand{g.source, g.sink, 1};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  // A full 2^32-per-side sweep is too slow for a unit test; this is a
  // structural smoke test that the side problems build correctly at a
  // size the naive algorithm cannot even represent. (The scaling bench
  // exercises the full run at intermediate sizes.)
  const SideProblem side_s = make_side_problem(g.net, demand, partition, true);
  const SideProblem side_t =
      make_side_problem(g.net, demand, partition, false);
  EXPECT_EQ(side_s.view.num_edges(), 32);
  EXPECT_EQ(side_t.view.num_edges(), 32);
}

TEST(Bottleneck, MediumClusteredInstanceAgreesWithFactoring) {
  // 26 links total: naive would need 2^26 max-flows; factoring and the
  // decomposition both handle it quickly and must agree.
  Xoshiro256 rng(123);
  ClusteredParams params;
  params.nodes_s = 7;
  params.nodes_t = 7;
  params.extra_edges_s = 6;
  params.extra_edges_t = 6;
  params.bottleneck_links = 2;
  params.cluster_probs = {0.02, 0.15};
  params.bottleneck_probs = {0.02, 0.15};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  ASSERT_EQ(g.net.num_edges(), 26);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_NEAR(reliability_bottleneck(g.net, demand, partition).reliability,
              reliability_factoring(g.net, demand).reliability, 1e-9);
}

}  // namespace
}  // namespace streamrel
