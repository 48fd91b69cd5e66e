// The bit-parallel slab sweep must be an exact drop-in for the paper's
// from-scratch procedure (kScratch, the oracle): bitwise-identical side
// arrays and fold distributions on a large population of seeded graphs,
// on sides of 0-5 links (single-configuration arrays, partial slabs) and
// across parallel shards, full decision accounting (word-wide lanes +
// scalar residue == configurations x |D|), and a strictly smaller
// solver bill than scratch on non-trivial arrays.
// Also covers the BitSlabs primitives: the Gray-slab fill identity,
// gray_rank and slab/config form roundtrips, and the capacity-edit
// repair: a sweep seeded with the pre-edit array must equal the oracle
// on the edited side.

#include "streamrel/core/bit_slabs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "streamrel/core/side_array.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

TEST(GrayRank, InvertsGrayCodeAcrossTheMaskRange) {
  for (Mask i = 0; i < 4096; ++i) {
    EXPECT_EQ(gray_rank(gray_code(i)), i);
    EXPECT_EQ(gray_code(gray_rank(i)), i);
  }
  for (const Mask i : {Mask{1} << 20, (Mask{1} << 40) + 12345,
                       (Mask{1} << 62) + 987654321, ~Mask{0} >> 1}) {
    EXPECT_EQ(gray_rank(gray_code(i)), i);
  }
}

TEST(BitSlabs, FillMatchesThePerLaneDefinition) {
  const int edges = 10;
  BitSlabs slabs(edges);
  for (const Mask base : {Mask{0}, Mask{64}, Mask{128}, Mask{1} << 9,
                          (Mask{1} << 9) - 64}) {
    slabs.fill(base);
    for (int e = 0; e < edges; ++e) {
      for (int lane = 0; lane < 64; ++lane) {
        const Mask config = gray_code(base + static_cast<Mask>(lane));
        EXPECT_EQ(test_bit(slabs.word(e), lane), test_bit(config, e))
            << "base " << base << " edge " << e << " lane " << lane;
      }
    }
  }
}

TEST(BitSlabs, LowPatternIsTheBaseZeroSlab) {
  BitSlabs slabs(kMaxMaskBits);
  slabs.fill(0);
  for (int e = 0; e < kMaxMaskBits; ++e) {
    EXPECT_EQ(slabs.word(e), BitSlabs::low_pattern(e));
  }
  EXPECT_EQ(BitSlabs::low_pattern(6), 0u);  // gray codes < 64 use bits 0..5
}

TEST(BitSlabs, RejectsUnalignedBaseAndBadEdgeCounts) {
  EXPECT_THROW(BitSlabs(-1), std::invalid_argument);
  EXPECT_THROW(BitSlabs(kMaxMaskBits + 1), std::invalid_argument);
  BitSlabs slabs(4);
  EXPECT_THROW(slabs.fill(1), std::invalid_argument);
  EXPECT_THROW(slabs.fill(63), std::invalid_argument);
  EXPECT_NO_THROW(slabs.fill(0));
}

TEST(SlabMaskTable, RoundTripsWithTheConfigIndexedForm) {
  Xoshiro256 rng(20260808);
  const int links = 7;
  std::vector<Mask> array(std::size_t{1} << links);
  for (Mask& m : array) m = rng() & 0xFF;

  const SlabMaskTable table = slab_form(array, links);
  EXPECT_EQ(table.num_links, links);
  EXPECT_EQ(config_form(table), array);
  for (Mask config = 0; config < (Mask{1} << links); ++config) {
    EXPECT_EQ(table.at_config(config),
              array[static_cast<std::size_t>(config)]);
  }
  for (Mask rank = 0; rank < (Mask{1} << links); ++rank) {
    EXPECT_EQ(table.at_rank(rank),
              array[static_cast<std::size_t>(gray_code(rank))]);
  }
  EXPECT_THROW(slab_form(array, links + 1), std::invalid_argument);
}

SideArrayOptions sweep_options(SideSweepStrategy sweep) {
  SideArrayOptions o;
  o.parallel = false;
  o.sweep = sweep;
  return o;
}

void expect_same_distribution(const MaskDistribution& a,
                              const MaskDistribution& b, const char* what) {
  ASSERT_EQ(a.buckets.size(), b.buckets.size()) << what;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].first, b.buckets[i].first) << what;
    EXPECT_EQ(a.buckets[i].second, b.buckets[i].second) << what;  // bitwise
  }
  EXPECT_EQ(a.total, b.total) << what;
}

// The heart of the contract: on 200 seeded clustered graphs (sides from
// a handful of links — partial slabs — up to ~2^10 configurations),
// every strategy produces the SAME bytes, the slab sweep answers
// every (configuration, assignment) decision exactly once between its
// word-wide kernels and the scalar residue, and never solves more
// max-flows than the from-scratch sweep.
TEST(BitParallelSweep, MatchesScratchOn200SeededGraphs) {
  Xoshiro256 rng(20260807);
  int nontrivial = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ClusteredParams params;
    params.nodes_s = 3 + static_cast<int>(rng.uniform_below(4));
    params.nodes_t = 3 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = static_cast<int>(rng.uniform_below(4));
    params.extra_edges_t = static_cast<int>(rng.uniform_below(4));
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_caps = {1, 3};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = rng.uniform_int(1, 3);

    for (const AssignmentMode mode :
         {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
      AssignmentSet assignments;
      try {
        assignments = enumerate_assignments(g.net, partition, d, {mode});
      } catch (const std::invalid_argument&) {
        continue;  // |D| guard tripped; irrelevant here
      }
      if (assignments.size() == 0) continue;

      for (const bool source_side : {true, false}) {
        const SideProblem side = make_side_problem(
            g.net, {g.source, g.sink, d}, partition, source_side);

        SideArrayStats scratch_stats;
        const std::vector<Mask> scratch = build_side_array(
            side, assignments, d,
            sweep_options(SideSweepStrategy::kScratch), &scratch_stats);
        SideArrayStats bit_stats;
        const std::vector<Mask> bit_parallel = build_side_array(
            side, assignments, d,
            sweep_options(SideSweepStrategy::kBitParallel), &bit_stats);

        ASSERT_EQ(scratch, bit_parallel)
            << "trial " << trial << " source_side " << source_side;

        // Full decision accounting: every (configuration, assignment)
        // pair is decided exactly once, word-wide or by the residue.
        const std::uint64_t decisions =
            static_cast<std::uint64_t>(scratch.size()) *
            static_cast<std::uint64_t>(assignments.size());
        EXPECT_EQ(bit_stats.lanes_decided_wordwise() +
                      bit_stats.scalar_residue(),
                  decisions)
            << "trial " << trial << " source_side " << source_side;
        EXPECT_LE(bit_stats.maxflow_calls(), scratch_stats.maxflow_calls());
        if (scratch.size() >= 64) ++nontrivial;

        // The fold is a pure function of (array, probabilities): both
        // strategies and both resting forms produce bitwise identical
        // distributions.
        const MaskDistribution dist = bucket_side_array(side, scratch);
        expect_same_distribution(dist, bucket_side_array(side, bit_parallel),
                                 "fold(bit_parallel)");
        expect_same_distribution(
            dist,
            bucket_side_array(side,
                              slab_form(scratch, side.view.num_edges())),
            "fold(slab form)");
      }
    }
  }
  EXPECT_GT(nontrivial, 50);  // the population exercises full slabs
}

// Sides of 0-5 links: a single-configuration array (0 links) and
// partial slabs (2-32 configurations) run the slab sweep's edge cases —
// one-lane slabs, empty adjacency, endpoints at the anchor.
GeneratedNetwork small_sides_network(Xoshiro256& rng, int links) {
  // Source side {0, 1, 2}, sink side {3, 4, 5}; s = 0, t = 5.
  GeneratedNetwork g{FlowNetwork(6), 0, 5, {true, true, true, false, false,
                                            false}};
  const auto random_kind = [&rng] {
    return rng.uniform_below(3) == 0 ? EdgeKind::kDirected
                                     : EdgeKind::kUndirected;
  };
  for (const NodeId base : {0, 3}) {
    for (int i = 0; i < links; ++i) {
      const NodeId u = base + static_cast<NodeId>(rng.uniform_below(3));
      const NodeId v =
          base + static_cast<NodeId>((u - base + 1 + static_cast<NodeId>(
                                                      rng.uniform_below(2))) %
                                     3);
      g.net.add_edge(u, v, rng.uniform_int(1, 3), 0.05 + 0.3 * rng.uniform01(),
                     random_kind());
    }
  }
  const int crossing = 1 + static_cast<int>(rng.uniform_below(3));
  for (int i = 0; i < crossing; ++i) {
    g.net.add_edge(static_cast<NodeId>(rng.uniform_below(3)),
                   3 + static_cast<NodeId>(rng.uniform_below(3)),
                   rng.uniform_int(1, 3), 0.05 + 0.3 * rng.uniform01(),
                   random_kind());
  }
  return g;
}

TEST(BitParallelSweep, SmallSidesMatchScratch) {
  Xoshiro256 rng(20261018);
  int compared = 0;
  for (int links = 0; links <= 5; ++links) {
    for (int trial = 0; trial < 12; ++trial) {
      const GeneratedNetwork g = small_sides_network(rng, links);
      const BottleneckPartition partition =
          partition_from_sides(g.net, g.source, g.sink, g.side_s);
      const Capacity d = rng.uniform_int(1, 3);
      for (const AssignmentMode mode :
           {AssignmentMode::kAuto, AssignmentMode::kSigned}) {
        AssignmentSet assignments;
        try {
          assignments = enumerate_assignments(g.net, partition, d, {mode});
        } catch (const std::invalid_argument&) {
          continue;  // |D| guard tripped; irrelevant here
        }
        if (assignments.size() == 0) continue;
        for (const bool source_side : {true, false}) {
          const SideProblem side = make_side_problem(
              g.net, {g.source, g.sink, d}, partition, source_side);
          ASSERT_EQ(side.view.num_edges(), links);
          const std::vector<Mask> scratch = build_side_array(
              side, assignments, d,
              sweep_options(SideSweepStrategy::kScratch));
          SideArrayStats bit_stats;
          const std::vector<Mask> bit_parallel = build_side_array(
              side, assignments, d,
              sweep_options(SideSweepStrategy::kBitParallel), &bit_stats);
          ASSERT_EQ(scratch, bit_parallel)
              << "links " << links << " trial " << trial << " source_side "
              << source_side;
          EXPECT_EQ(bit_stats.lanes_decided_wordwise() +
                        bit_stats.scalar_residue(),
                    static_cast<std::uint64_t>(scratch.size()) *
                        static_cast<std::uint64_t>(assignments.size()));
          expect_same_distribution(bucket_side_array(side, scratch),
                                   bucket_side_array(side, bit_parallel),
                                   "small side fold");
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 100);
}

// A 2^12-configuration side: large enough for the OpenMP path's
// Gray-aligned shards, which must reproduce the serial array, and for
// the slab sweep to undercut scratch's solver bill.
TEST(BitParallelSweep, ParallelShardsMatchSerial) {
  // The default options are the sharded slab sweep.
  ASSERT_EQ(SideArrayOptions{}.sweep, SideSweepStrategy::kBitParallel);
  ASSERT_TRUE(SideArrayOptions{}.parallel);
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    Xoshiro256 rng(seed);
    ClusteredParams params;
    params.nodes_s = 9;
    params.extra_edges_s = 4;  // 12 source-side links -> 4096 configurations
    params.nodes_t = 3;
    params.extra_edges_t = 1;
    params.bottleneck_links = 2;
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const AssignmentSet assignments =
        enumerate_assignments(g.net, partition, 2, {AssignmentMode::kAuto});
    ASSERT_GT(assignments.size(), 0);
    const SideProblem side =
        make_side_problem(g.net, {g.source, g.sink, 2}, partition, true);
    ASSERT_GE(side.view.num_edges(), 12);

    SideArrayStats scratch_stats;
    const std::vector<Mask> scratch =
        build_side_array(side, assignments, 2,
                         sweep_options(SideSweepStrategy::kScratch),
                         &scratch_stats);
    SideArrayStats serial_stats;
    const std::vector<Mask> serial =
        build_side_array(side, assignments, 2,
                         sweep_options(SideSweepStrategy::kBitParallel),
                         &serial_stats);
    const std::vector<Mask> sharded =
        build_side_array(side, assignments, 2);  // default options

    EXPECT_EQ(scratch, serial) << "seed " << seed;
    EXPECT_EQ(scratch, sharded) << "seed " << seed;
    EXPECT_EQ(scratch_stats.maxflow_calls(),
              static_cast<std::uint64_t>(assignments.size()) *
                  scratch.size());
    EXPECT_LT(serial_stats.maxflow_calls(), scratch_stats.maxflow_calls());
    expect_same_distribution(bucket_side_array(side, scratch),
                             bucket_side_array(side, sharded),
                             "sharded fold");
  }
}

TEST(BitParallelSweep, SlabBuilderMatchesTheVectorBuilder) {
  Xoshiro256 rng(99);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 2;
  params.nodes_t = 4;
  params.extra_edges_t = 1;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const Capacity d = 2;
  const AssignmentSet forward = enumerate_assignments(
      g.net, partition, d, {AssignmentMode::kForwardOnly});
  ASSERT_GT(forward.size(), 0);

  for (const bool source_side : {true, false}) {
    const SideProblem side = make_side_problem(
        g.net, {g.source, g.sink, d}, partition, source_side);
    SideArrayStats vec_stats;
    const std::vector<Mask> array =
        build_side_array(side, forward, d,
                         sweep_options(SideSweepStrategy::kBitParallel),
                         &vec_stats);
    SideArrayStats slab_stats;
    const SlabMaskTable table = build_side_array_slab(
        side, forward, d, sweep_options(SideSweepStrategy::kBitParallel),
        &slab_stats);
    EXPECT_EQ(config_form(table), array);
    EXPECT_EQ(table.num_links, side.view.num_edges());
    // Same sweep underneath: the counters agree exactly.
    EXPECT_TRUE(
        vec_stats.telemetry.counters_equal(slab_stats.telemetry));
    expect_same_distribution(bucket_side_array(side, array),
                             bucket_side_array(side, table), "slab builder");
  }
}

// Two four-node clusters (source side 0-3 with s = 0, sink side 4-7
// with t = 7) carrying `links_s` / `links_t` random links each, plus 1-3
// crossing links. Clusters with at least three links start with a path,
// so the demand is usually routable.
GeneratedNetwork random_sides_network(Xoshiro256& rng, int links_s,
                                      int links_t) {
  GeneratedNetwork g{FlowNetwork(8), 0, 7,
                     {true, true, true, true, false, false, false, false}};
  const auto random_kind = [&rng] {
    return rng.uniform_below(3) == 0 ? EdgeKind::kDirected
                                     : EdgeKind::kUndirected;
  };
  const auto add = [&](NodeId u, NodeId v) {
    g.net.add_edge(u, v, rng.uniform_int(1, 3), 0.05 + 0.3 * rng.uniform01(),
                   random_kind());
  };
  for (const auto& [base, links] : {std::pair<NodeId, int>{0, links_s},
                                    std::pair<NodeId, int>{4, links_t}}) {
    int added = 0;
    if (links >= 3) {
      for (; added < 3; ++added) add(base + added, base + added + 1);
    }
    for (; added < links; ++added) {
      const NodeId u = base + static_cast<NodeId>(rng.uniform_below(4));
      const NodeId v =
          base + (u - base + 1 + static_cast<NodeId>(rng.uniform_below(3))) % 4;
      add(u, v);
    }
  }
  const int crossing = 1 + static_cast<int>(rng.uniform_below(3));
  for (int i = 0; i < crossing; ++i) {
    add(static_cast<NodeId>(rng.uniform_below(4)),
        4 + static_cast<NodeId>(rng.uniform_below(4)));
  }
  return g;
}

// Capacity-edit repair on 200 seeded graphs with sides of 0-14 links:
// 1-3 links of one side are raised, lowered, set to 0, left equal or
// edited in mixed directions, and the sweep seeded with the pre-edit
// array must reproduce the kScratch oracle on the edited side bitwise,
// with every (configuration, assignment) decision accounted for once
// (seed + word-wide + residue).
TEST(BitParallelSweep, SeededRepairMatchesScratch) {
  Xoshiro256 rng(20261019);
  int repaired = 0;
  int adopted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int links_s = static_cast<int>(rng.uniform_below(15));
    const int links_t = static_cast<int>(rng.uniform_below(15));
    const GeneratedNetwork g = random_sides_network(rng, links_s, links_t);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = rng.uniform_int(1, 3);
    const FlowDemand demand{g.source, g.sink, d};
    AssignmentSet assignments;
    try {
      assignments = enumerate_assignments(
          g.net, partition, d,
          {trial % 2 == 0 ? AssignmentMode::kAuto : AssignmentMode::kSigned});
    } catch (const std::invalid_argument&) {
      continue;  // |D| guard tripped; irrelevant here
    }
    if (assignments.size() == 0) continue;

    SideArrayOptions options = sweep_options(SideSweepStrategy::kBitParallel);
    options.parallel = trial % 3 == 0;  // sharded on the >= 2^10 sides
    for (const bool source_side : {true, false}) {
      const SideProblem before =
          make_side_problem(g.net, demand, partition, source_side);
      const SlabMaskTable seed_array = build_side_array_slab(
          before, assignments, d, options, nullptr);

      // Edit 1-3 distinct links of this side (none on an empty side).
      FlowNetwork edited = g.net;
      const int m = before.view.num_edges();
      const int mode = static_cast<int>(rng.uniform_below(5));
      const int edits = m == 0 ? 0 : 1 + static_cast<int>(rng.uniform_below(
                                              static_cast<std::uint64_t>(
                                                  std::min(m, 3))));
      int changed = 0;
      Mask picked = 0;
      while (popcount(picked) < edits) {
        const int e = static_cast<int>(
            rng.uniform_below(static_cast<std::uint64_t>(m)));
        if (test_bit(picked, e)) continue;
        picked |= bit(e);
        const EdgeId id = before.view.original_edge(e);
        const Capacity cap = edited.edge(id).capacity;
        const int how =
            mode == 4 ? static_cast<int>(rng.uniform_below(4)) : mode;
        const Capacity next = how == 0   ? cap + rng.uniform_int(1, 2)
                              : how == 1 ? cap - 1
                              : how == 2 ? 0
                                         : cap;
        edited.set_capacity(id, next);
        changed += next != cap ? 1 : 0;
      }

      const SideProblem after =
          make_side_problem(edited, demand, partition, source_side);
      const SideArraySeed seed{&before, &seed_array};
      ASSERT_EQ(seed_changed_links(after, seed), changed);
      SideArrayStats stats;
      const SlabMaskTable seeded = build_side_array_slab(
          after, assignments, d, options, &stats, nullptr, seed);
      const std::vector<Mask> oracle = build_side_array(
          after, assignments, d, sweep_options(SideSweepStrategy::kScratch));
      ASSERT_EQ(config_form(seeded), oracle)
          << "trial " << trial << " source_side " << source_side << " mode "
          << mode << " changed " << changed;
      EXPECT_EQ(stats.lanes_decided_by_seed() +
                    stats.lanes_decided_wordwise() + stats.scalar_residue(),
                static_cast<std::uint64_t>(oracle.size()) *
                    static_cast<std::uint64_t>(assignments.size()))
          << "trial " << trial << " source_side " << source_side;
      if (changed == 0) {
        // An empty diff copies the seed: no kernel, no solver.
        EXPECT_EQ(stats.lanes_decided_by_seed(),
                  static_cast<std::uint64_t>(oracle.size()) *
                      static_cast<std::uint64_t>(assignments.size()));
        EXPECT_EQ(stats.maxflow_calls(), 0u);
        ++adopted;
      } else {
        ++repaired;
      }

      // A seed from the other side never applies.
      const SideProblem other =
          make_side_problem(edited, demand, partition, !source_side);
      EXPECT_EQ(seed_changed_links(other, seed), -1);
    }
  }
  EXPECT_GT(repaired, 100);
  EXPECT_GT(adopted, 20);
}

}  // namespace
}  // namespace streamrel
