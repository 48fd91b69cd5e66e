#include "streamrel/core/query_session.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "streamrel/graph/generators.hpp"
#include "streamrel/graph/io.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

/// Clustered instance with a genuine bottleneck, big enough that the
/// kAuto chain picks the decomposition but small enough for fast tests.
GeneratedNetwork test_instance(std::uint64_t seed = 5) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 3;
  params.nodes_t = 4;
  params.extra_edges_t = 2;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  return clustered_bottleneck(rng, params);
}

// An overlay whose demand no configuration can carry: its exact
// reliability is 0, and the inclusion-exclusion over rounded bucket sums
// once answered about -1.4e-16 here. 16 source-side links, 6 sink-side
// links, two bottleneck links of capacity 2-3, demand 2.
TEST(QuerySession, InfeasibleDemandAnswersStayInsideTheUnitInterval) {
  Xoshiro256 shape_rng(0x5eedf011 + 1);
  ClusteredParams params;
  params.nodes_s = 9;
  params.extra_edges_s = 8;
  params.nodes_t = 4;
  params.extra_edges_t = 3;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {2, 3};
  GeneratedNetwork g = clustered_bottleneck(shape_rng, params);
  Xoshiro256 prob_rng(1000003 + 1);
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    g.net.set_failure_prob(e, prob_rng.uniform_real(0.05, 0.2));
  }
  const FlowNetwork net =
      read_network_from_string(network_to_string(g.net)).net;
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(net);
  const SolveReport served = session.solve(demand);
  const SolveReport facade = compute_reliability(net, demand);
  ASSERT_EQ(served.result.status, SolveStatus::kExact);
  EXPECT_EQ(served.result.reliability, facade.result.reliability);
  for (const double r : {served.result.reliability,
                         facade.result.reliability}) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  EXPECT_LT(served.result.reliability, 1e-12);

  // The what-if path reuses the cached arrays under new probabilities.
  const std::vector<ProbOverride> overrides{{0, 0.4}, {5, 0.02}};
  const SolveReport what_if = session.solve(demand, {}, overrides);
  EXPECT_GE(what_if.result.reliability, 0.0);
  EXPECT_LE(what_if.result.reliability, 1.0);
}

TEST(QuerySession, WarmAnswersAreBitwiseEqualToCold) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport cold = session.solve(demand);
  EXPECT_EQ(session.cache_hits(), 0u);
  EXPECT_GT(session.cache_misses(), 0u);

  const SolveReport warm = session.solve(demand);
  EXPECT_GT(session.cache_hits(), 0u);
  // Bitwise, not approximate: the warm path reuses the cold arithmetic.
  EXPECT_EQ(warm.result.reliability, cold.result.reliability);
  EXPECT_EQ(warm.result.status, SolveStatus::kExact);
}

TEST(QuerySession, MatchesFacadeAnswerExactly) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport facade = compute_reliability(g.net, demand);
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(served.result.reliability, facade.result.reliability);
  EXPECT_EQ(served.method_used, facade.method_used);
}

TEST(QuerySession, OverridesMatchEditedNetworkSolve) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const std::vector<ProbOverride> overrides{{0, 0.33}, {3, 0.05}};

  QuerySession session(g.net);
  session.solve(demand);  // warm the caches
  const SolveReport what_if = session.solve(demand, {}, overrides);

  FlowNetwork edited = g.net;
  for (const ProbOverride& o : overrides) {
    edited.set_failure_prob(o.edge, o.failure_prob);
  }
  const SolveReport facade = compute_reliability(edited, demand);
  EXPECT_EQ(what_if.result.reliability, facade.result.reliability);

  // The what-if left the session network untouched.
  EXPECT_EQ(session.network().edge(0).failure_prob, g.net.edge(0).failure_prob);
  const SolveReport base_again = session.solve(demand);
  EXPECT_EQ(base_again.result.reliability,
            compute_reliability(g.net, demand).result.reliability);
}

TEST(QuerySession, ProbabilityEditKeepsCaches) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);
  const std::uint64_t misses_after_cold = session.cache_misses();

  session.set_failure_prob(0, 0.42);
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses_after_cold);  // no rebuild
  EXPECT_GT(session.cache_hits(), 0u);
  EXPECT_EQ(session.cache_invalidations(), 0u);

  FlowNetwork edited = g.net;
  edited.set_failure_prob(0, 0.42);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, CapacityEditInvalidatesAndRecomputes) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);
  const std::uint64_t misses_after_cold = session.cache_misses();

  // Raising a bottleneck-link capacity changes the assignment set, so a
  // stale mask table would silently produce a wrong answer.
  EdgeId edge = 0;
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    if (g.side_s[static_cast<std::size_t>(link.u)] !=
        g.side_s[static_cast<std::size_t>(link.v)]) {
      edge = e;
      break;
    }
  }
  session.set_capacity(edge, session.network().edge(edge).capacity + 1);
  EXPECT_EQ(session.cache_invalidations(), 1u);

  const SolveReport served = session.solve(demand);
  EXPECT_GT(session.cache_misses(), misses_after_cold);  // rebuilt

  FlowNetwork edited = g.net;
  edited.set_capacity(edge, edited.edge(edge).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, LruEvictsUnderTinyBound) {
  const GeneratedNetwork g = test_instance();

  QueryCacheOptions cache;
  cache.max_mask_tables = 1;
  QuerySession session(g.net, cache);

  // Two distinct demands -> two mask tables; bound 1 forces an eviction.
  // (Rates 2 and 3: rate-1 undirected queries are reduction-eligible and
  // bypass the caches.)
  session.solve({g.source, g.sink, 2});
  session.solve({g.source, g.sink, 3});
  EXPECT_GE(session.cache_evictions(), 1u);

  // The evicted demand still answers correctly (rebuild, not corruption).
  const SolveReport again = session.solve({g.source, g.sink, 2});
  EXPECT_EQ(again.result.reliability,
            compute_reliability(g.net, {g.source, g.sink, 2})
                .result.reliability);
}

TEST(QuerySession, InvalidOverridesThrow) {
  const GeneratedNetwork g = test_instance();
  QuerySession session(g.net);
  const FlowDemand demand{g.source, g.sink, 1};
  const std::vector<ProbOverride> bad_edge{{g.net.num_edges(), 0.1}};
  EXPECT_THROW(session.solve(demand, {}, bad_edge), std::invalid_argument);
  const std::vector<ProbOverride> bad_prob{{0, 1.5}};
  EXPECT_THROW(session.solve(demand, {}, bad_prob), std::invalid_argument);
}

TEST(QuerySession, DisabledCacheStillAnswersCorrectly) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QueryCacheOptions cache;
  cache.enabled = false;
  QuerySession session(g.net, cache);
  const SolveReport a = session.solve(demand);
  const SolveReport b = session.solve(demand);
  EXPECT_EQ(session.cache_hits(), 0u);
  EXPECT_EQ(a.result.reliability, b.result.reliability);
  EXPECT_EQ(a.result.reliability,
            compute_reliability(g.net, demand).result.reliability);
}

TEST(QuerySession, TelemetryCountsQueries) {
  const GeneratedNetwork g = test_instance();
  QuerySession session(g.net);
  session.solve({g.source, g.sink, 1});
  session.solve({g.source, g.sink, 1});
  EXPECT_EQ(session.telemetry().counter_or(telemetry_keys::kQueries), 2u);
}

// Finds an edge strictly inside the source-side cluster (never crossing).
EdgeId side_internal_edge(const GeneratedNetwork& g, bool source_side) {
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    const bool u_s = g.side_s[static_cast<std::size_t>(link.u)];
    const bool v_s = g.side_s[static_cast<std::size_t>(link.v)];
    if (u_s == v_s && u_s == source_side) return e;
  }
  ADD_FAILURE() << "instance has no side-internal edge";
  return 0;
}

TEST(QuerySession, SideInternalCapacityEditSalvagesTheOtherSide) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);  // warm: one cached mask entry

  const EdgeId inside_s = side_internal_edge(g, true);
  NetworkDelta delta;
  delta.set_capacity(inside_s, g.net.edge(inside_s).capacity + 1);
  const DeltaOutcome outcome = session.apply_delta(delta);

  // Touch confined to side s: the entry is dropped but side t is
  // salvaged — a partial invalidation, with the partition kept.
  EXPECT_EQ(outcome.applied, DeltaClass::kCapacityOnly);
  EXPECT_EQ(outcome.entries_partial, 1u);
  EXPECT_EQ(outcome.entries_full, 0u);
  EXPECT_GE(outcome.partitions_survived, 1u);
  EXPECT_GE(outcome.assignments_survived, 1u);
  EXPECT_EQ(session.cache_invalidations_partial(), 1u);
  EXPECT_EQ(session.cache_invalidations_full(), 0u);

  // The rebuild adopts the salvaged side and stays bitwise-correct.
  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(inside_s, edited.edge(inside_s).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
  const Telemetry* cache = session.telemetry().find_child("cache");
  ASSERT_NE(cache, nullptr);
  const Telemetry* masks = cache->find_child("masks");
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(masks->counter_or(telemetry_keys::kSideRepairs), 1u);
}

TEST(QuerySession, CrossingCapacityEditDropsEntryAndAssignments) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  // A crossing edge joins the two clusters.
  EdgeId crossing = 0;
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    if (g.side_s[static_cast<std::size_t>(link.u)] !=
        g.side_s[static_cast<std::size_t>(link.v)]) {
      crossing = e;
      break;
    }
  }
  NetworkDelta delta;
  delta.set_capacity(crossing, g.net.edge(crossing).capacity + 1);
  const DeltaOutcome outcome = session.apply_delta(delta);

  EXPECT_EQ(outcome.entries_full, 1u);
  EXPECT_EQ(outcome.entries_partial, 0u);
  EXPECT_EQ(outcome.assignments_survived, 0u);  // assignment set was dropped
  EXPECT_GE(outcome.partitions_survived, 1u);   // candidates are kept

  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(crossing, edited.edge(crossing).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, ProbabilityDeltaSurvivesAllLayers) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  NetworkDelta delta;
  delta.set_failure_prob(0, 0.42).set_failure_prob(1, 0.17);
  const DeltaOutcome outcome = session.apply_delta(delta);
  EXPECT_EQ(outcome.applied, DeltaClass::kProbabilityOnly);
  EXPECT_EQ(outcome.entries_survived, 1u);
  EXPECT_EQ(outcome.entries_full, 0u);
  EXPECT_EQ(session.cache_survived(), 1u);

  const std::uint64_t misses = session.cache_misses();
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses);  // no rebuild at all

  FlowNetwork edited = g.net;
  edited.set_failure_prob(0, 0.42);
  edited.set_failure_prob(1, 0.17);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, InvalidDeltaIsAtomic) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(g.net);
  session.solve(demand);
  const std::uint64_t misses = session.cache_misses();

  NetworkDelta bad;
  bad.set_failure_prob(0, 0.3).set_capacity(g.net.num_edges(), 2);
  EXPECT_THROW(session.apply_delta(bad), std::invalid_argument);

  // Neither the network nor the caches moved.
  EXPECT_EQ(session.network().edge(0).failure_prob,
            g.net.edge(0).failure_prob);
  session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses);
}

TEST(QuerySession, AliasProbabilityEditFastPathKeepsCaches) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport before = session.solve(demand);
  (void)before;
  const std::uint64_t misses = session.cache_misses();

  // The documented alias flow: edit probabilities directly, then declare
  // the edit class. Structural artifacts must survive.
  session.mutable_network().set_failure_prob(0, 0.37);
  session.invalidate(DeltaClass::kProbabilityOnly);
  EXPECT_EQ(session.cache_invalidations(), 0u);
  EXPECT_GE(session.cache_survived(), 1u);

  const SolveReport served = session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses);  // fast path: no rebuild

  FlowNetwork edited = g.net;
  edited.set_failure_prob(0, 0.37);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, AliasStructuralEditFlushesEverything) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  session.mutable_network().set_capacity(0, g.net.edge(0).capacity + 1);
  session.invalidate(DeltaClass::kCapacityOnly);  // touched set unknown
  EXPECT_EQ(session.cache_invalidations(), 1u);
  EXPECT_GE(session.cache_invalidations_full(), 1u);

  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(0, edited.edge(0).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, TopologyDeltaTranslatesAndRecovers) {
  const GeneratedNetwork g = test_instance();
  FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  NetworkDelta join;
  const NodeId peer = join.add_node(g.net.num_nodes());
  join.add_edge(g.source, peer, 1, 0.1);
  join.add_edge(peer, g.sink, 1, 0.1);
  const DeltaOutcome outcome = session.apply_delta(join);
  EXPECT_EQ(outcome.applied, DeltaClass::kTopology);
  EXPECT_EQ(outcome.entries_full, 1u);  // the warm entry was flushed

  demand.source = outcome.node_map[static_cast<std::size_t>(g.source)];
  demand.sink = outcome.node_map[static_cast<std::size_t>(g.sink)];
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(session.network(), demand)
                .result.reliability);
}

// Edge ids by where they lie for the instance's two clusters.
struct EdgePlaces {
  std::vector<EdgeId> side_s;
  std::vector<EdgeId> side_t;
  std::vector<EdgeId> crossing;
};

EdgePlaces edge_places(const GeneratedNetwork& g) {
  EdgePlaces places;
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    const bool u_s = g.side_s[static_cast<std::size_t>(link.u)];
    const bool v_s = g.side_s[static_cast<std::size_t>(link.v)];
    if (u_s != v_s) {
      places.crossing.push_back(e);
    } else {
      (u_s ? places.side_s : places.side_t).push_back(e);
    }
  }
  return places;
}

// Random capacity deltas — inside side s, inside side t, on both sides in
// one delta, on crossing edges — with several deltas between solves, at
// two demands sharing the session. Every answer, whether a cached entry,
// an adopted seed, a seeded repair or a full rebuild served it, must be
// bitwise equal to a fresh facade solve on the edited network.
TEST(QuerySession, CapacityEditSequencesRepairBitwise) {
  std::uint64_t seeded_lanes = 0;
  std::uint64_t adoptions = 0;
  for (const std::uint64_t instance : {5u, 11u, 23u}) {
    Xoshiro256 shape(instance);
    ClusteredParams params;
    params.nodes_s = 6;
    params.extra_edges_s = 4;
    params.nodes_t = 5;
    params.extra_edges_t = 3;
    params.bottleneck_links = 2;
    params.bottleneck_caps = {2, 3};
    const GeneratedNetwork g = clustered_bottleneck(shape, params);
    const EdgePlaces places = edge_places(g);
    ASSERT_FALSE(places.side_s.empty());
    ASSERT_FALSE(places.side_t.empty());
    ASSERT_FALSE(places.crossing.empty());

    QuerySession session(g.net);
    FlowNetwork reference = g.net;
    Xoshiro256 rng(instance * 7919);
    const auto pick = [&rng](const std::vector<EdgeId>& from) {
      return from[rng.uniform_below(from.size())];
    };
    for (int step = 0; step < 24; ++step) {
      const int deltas = 1 + static_cast<int>(rng.uniform_below(3));
      for (int k = 0; k < deltas; ++k) {
        NetworkDelta delta;
        const auto edit = [&](EdgeId e) {
          const Capacity c = rng.uniform_int(0, 4);
          delta.set_capacity(e, c);
          reference.set_capacity(e, c);
        };
        switch (rng.uniform_below(5)) {
          case 0:
            edit(pick(places.side_s));
            break;
          case 1:
            edit(pick(places.side_t));
            break;
          case 2:
            edit(pick(places.side_s));
            edit(pick(places.side_t));
            break;
          case 3:
            edit(pick(places.crossing));
            break;
          default:
            edit(pick(places.side_s));
            edit(pick(places.side_s));
            break;
        }
        session.apply_delta(delta);
      }
      const FlowDemand demand{g.source, g.sink, 2 + step % 2};
      const SolveReport served = session.solve(demand);
      const SolveReport fresh = compute_reliability(reference, demand);
      ASSERT_EQ(served.result.status, fresh.result.status)
          << "instance " << instance << " step " << step;
      ASSERT_EQ(served.result.reliability, fresh.result.reliability)
          << "instance " << instance << " step " << step;
    }
    if (const Telemetry* solves = session.telemetry().find_child("solves")) {
      seeded_lanes += solves->counter_or(telemetry_keys::kLanesSeed);
    }
    const Telemetry* cache = session.telemetry().find_child("cache");
    ASSERT_NE(cache, nullptr);
    if (const Telemetry* masks = cache->find_child("masks")) {
      adoptions += masks->counter_or(telemetry_keys::kSideRepairs);
    }
  }
  // The sequences exercised both halves of the mechanism.
  EXPECT_GT(seeded_lanes, 0u);
  EXPECT_GT(adoptions, 0u);
}

// A deadline that expires inside a seeded repair stops the solve with a
// non-exact status (and bounds) but leaves the seeds in place: the next
// solve is exact and still adopts the untouched side.
TEST(QuerySession, DeadlineStopDuringRepairKeepsTheSeed) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(g.net);
  session.solve(demand);

  const EdgeId inside_s = side_internal_edge(g, true);
  NetworkDelta delta;
  delta.set_capacity(inside_s, g.net.edge(inside_s).capacity + 1);
  session.apply_delta(delta);
  ASSERT_EQ(session.cached_seeds(), 1u);

  // Partitions and the assignment set are cached, so the first poll of
  // the expired context is the repair sweep's.
  ExecContext expired;
  expired.set_deadline_ms(0.0);
  SolveOptions stopped;
  stopped.context = &expired;
  const SolveReport cut_short = session.solve(demand, stopped);
  EXPECT_EQ(cut_short.result.status, SolveStatus::kDeadlineExpired);
  EXPECT_TRUE(cut_short.bounds.has_value());
  EXPECT_EQ(session.cached_seeds(), 1u);
  EXPECT_EQ(session.cached_mask_tables(), 0u);

  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(inside_s, edited.edge(inside_s).capacity + 1);
  EXPECT_EQ(served.result.status, SolveStatus::kExact);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
  EXPECT_EQ(session.cached_seeds(), 0u);
  const Telemetry* masks =
      session.telemetry().find_child("cache")->find_child("masks");
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(masks->counter_or(telemetry_keys::kSideRepairs), 1u);
}

// Seeds hold both side arrays of their key: they count toward the
// session's mask bytes and share the entry budget with the LRU.
TEST(QuerySession, SeedArraysCountTowardMaskBytesAndBudget) {
  const GeneratedNetwork g = test_instance();
  QuerySession session(g.net);
  const FlowDemand d2{g.source, g.sink, 2};
  const FlowDemand d3{g.source, g.sink, 3};
  session.solve(d2);
  session.solve(d3);
  ASSERT_EQ(session.cached_mask_tables(), 2u);
  const std::size_t bytes = session.cached_mask_bytes();
  ASSERT_GT(bytes, 0u);

  // A side-confined edit turns both entries into seeds: same bytes.
  const EdgeId inside_t = side_internal_edge(g, false);
  session.set_capacity(inside_t, g.net.edge(inside_t).capacity + 1);
  EXPECT_EQ(session.cached_mask_tables(), 0u);
  EXPECT_EQ(session.cached_seeds(), 2u);
  EXPECT_EQ(session.cached_mask_bytes(), bytes);

  // The budget bounds entries plus seeds; seeds are trimmed first.
  session.set_cache_budget(1);
  EXPECT_EQ(session.cached_seeds(), 1u);
  EXPECT_LT(session.cached_mask_bytes(), bytes);
  EXPECT_GT(session.cached_mask_bytes(), 0u);
  EXPECT_EQ(session.cache_evictions(), 0u);

  FlowNetwork edited = g.net;
  edited.set_capacity(inside_t, edited.edge(inside_t).capacity + 1);
  for (const FlowDemand& demand : {d2, d3, d2}) {
    const SolveReport served = session.solve(demand);
    EXPECT_EQ(served.result.reliability,
              compute_reliability(edited, demand).result.reliability);
    EXPECT_LE(session.cached_mask_tables() + session.cached_seeds(), 1u);
  }
  EXPECT_EQ(session.cached_seeds(), 0u);

  // A crossing edit kills seeds instead of keeping them.
  session.set_cache_budget(4);
  session.solve(d2);
  session.set_capacity(inside_t, g.net.edge(inside_t).capacity);
  EXPECT_EQ(session.cached_seeds(), 1u);
  const EdgeId crossing = edge_places(g).crossing.front();
  session.set_capacity(crossing, g.net.edge(crossing).capacity + 1);
  EXPECT_EQ(session.cached_seeds(), 0u);
  EXPECT_EQ(session.cached_mask_bytes(), 0u);
}

}  // namespace
}  // namespace streamrel
