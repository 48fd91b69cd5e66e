// E26 — side-array construction (the dominant cost of the bottleneck
// decomposition): the bit-parallel slab sweep, the production path,
// against the paper's from-scratch sweep, kept as the oracle. Reports
// wall time, max-flow solver calls and the slab sweep's word-wide
// coverage; verifies the arrays are bitwise identical and the
// end-to-end reliabilities agree to 1e-12 (at demand 1, where every
// size has R > 0, so the check compares two nonzero values; R == 0 there
// fails the run). Also times the probability fold
// (bucket_side_array) on the side's table under its own probabilities:
// fold.ms per fold and fold.mconfigs_per_s.
// The repair leg toggles each side link's capacity +1 and back, and
// times the full sweep of each edited side against the sweep seeded with
// the pre-edit array (repair.ms, repair.full_ms, repair.speedup_vs_full);
// every repaired array must equal the full sweep (repair_matches_full,
// exit 1 otherwise).
// With --json=FILE the results are also written as a schema-versioned
// bench_harness record for CI trend tracking.
//
// --threads N applies ONE thread policy to both strategies: N=1 (the
// default) runs both sweeps serially, N=0 lets the library pick, any
// other N caps the OpenMP pool — so the comparison is always like for
// like.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness.hpp"

#include "streamrel/streamrel.hpp"
#include "streamrel/util/cli.hpp"
#include "streamrel/util/stopwatch.hpp"
#include "streamrel/util/table.hpp"
#include "streamrel/util/trace.hpp"

using namespace streamrel;

namespace {

std::uint64_t count_occurrences(const std::string& haystack,
                                const std::string& needle) {
  std::uint64_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

struct Row {
  double scratch_ms = 0.0;
  double bit_ms = 0.0;
  std::uint64_t scratch_calls = 0;
  std::uint64_t bit_calls = 0;
  std::uint64_t lanes_wordwise = 0;
  std::uint64_t scalar_residue = 0;
  bool identical = false;
  std::vector<Mask> array;  ///< the bit-parallel side array

  /// Fraction of per-lane decisions the slab kernels made without a
  /// scalar engine.
  double wordwise_coverage() const {
    const double total =
        static_cast<double>(lanes_wordwise + scalar_residue);
    return total > 0.0 ? static_cast<double>(lanes_wordwise) / total : 0.0;
  }
};

struct ThreadPolicy {
  bool parallel = false;
  ExecContext ctx;

  const ExecContext* context() const { return parallel ? &ctx : nullptr; }
};

SideArrayOptions strategy_options(SideSweepStrategy s,
                                  const ThreadPolicy& policy) {
  SideArrayOptions o;
  o.parallel = policy.parallel;
  o.sweep = s;
  return o;
}

Row run_strategies(const SideProblem& side, const AssignmentSet& assignments,
                   Capacity d, const ThreadPolicy& policy) {
  Row row;
  Stopwatch sw;

  SideArrayStats scratch_stats;
  const auto scratch = build_side_array(
      side, assignments, d,
      strategy_options(SideSweepStrategy::kScratch, policy), &scratch_stats,
      policy.context());
  row.scratch_ms = sw.elapsed_ms();
  row.scratch_calls = scratch_stats.maxflow_calls();

  sw.reset();
  SideArrayStats bit_stats;
  const auto bit_parallel = build_side_array(
      side, assignments, d,
      strategy_options(SideSweepStrategy::kBitParallel, policy), &bit_stats,
      policy.context());
  row.bit_ms = sw.elapsed_ms();
  row.bit_calls = bit_stats.maxflow_calls();
  row.lanes_wordwise = bit_stats.lanes_decided_wordwise();
  row.scalar_residue = bit_stats.scalar_residue();

  row.identical = scratch == bit_parallel;
  row.array = bit_parallel;
  return row;
}

/// The repair leg's totals over every +1 / -1 capacity toggle.
struct RepairRow {
  double full_ms = 0.0;    ///< summed full sweeps of the edited sides
  double repair_ms = 0.0;  ///< summed seeded sweeps of the same sides
  int sweeps = 0;          ///< toggles (each timed both ways)
  std::uint64_t full_calls = 0;
  std::uint64_t repair_calls = 0;
  std::uint64_t lanes_by_seed = 0;
  std::uint64_t decisions = 0;  ///< (configuration, assignment) pairs
  bool matches = true;
};

/// Raises each side link's capacity by one and lowers it back: each edit
/// is swept in full and repaired from the array before it.
RepairRow run_repairs(const FlowNetwork& net, const FlowDemand& demand,
                      const BottleneckPartition& partition,
                      const AssignmentSet& assignments,
                      const ThreadPolicy& policy) {
  RepairRow row;
  const SideArrayOptions options =
      strategy_options(SideSweepStrategy::kBitParallel, policy);
  // One timed sweep of `side`, a repair when `seed` is set.
  const auto sweep = [&](const SideProblem& side, const SideArraySeed& seed) {
    const bool repair = seed.side != nullptr;
    SideArrayStats stats;
    Stopwatch sw;
    SlabMaskTable table =
        build_side_array_slab(side, assignments, demand.rate, options, &stats,
                              policy.context(), seed);
    (repair ? row.repair_ms : row.full_ms) += sw.elapsed_ms();
    (repair ? row.repair_calls : row.full_calls) += stats.maxflow_calls();
    row.lanes_by_seed += stats.lanes_decided_by_seed();
    return table;
  };
  const SideProblem base = make_side_problem(net, demand, partition, true);
  const SlabMaskTable base_array = build_side_array_slab(
      base, assignments, demand.rate, options, nullptr, policy.context());
  for (int e = 0; e < base.view.num_edges(); ++e) {
    FlowNetwork raised = net;
    const EdgeId id = base.view.original_edge(e);
    raised.set_capacity(id, raised.edge(id).capacity + 1);
    const SideProblem up = make_side_problem(raised, demand, partition, true);
    // +1: the base array repaired into the raised side's.
    const SlabMaskTable up_full = sweep(up, {});
    const SlabMaskTable up_repaired = sweep(up, {&base, &base_array});
    // -1: the raised array repaired back into the base side's.
    const SlabMaskTable down_full = sweep(base, {});
    const SlabMaskTable down_repaired = sweep(base, {&up, &up_full});
    row.matches = row.matches && up_repaired == up_full &&
                  down_repaired == down_full && down_full == base_array;
    row.sweeps += 2;
    row.decisions += 2 * static_cast<std::uint64_t>(base_array.size()) *
                     static_cast<std::uint64_t>(assignments.size());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int side_links = static_cast<int>(args.get_int("side-links", 18));
  const int bottleneck = static_cast<int>(args.get_int("bottleneck", 2));
  const Capacity d = args.get_int("demand", 2);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 17));
  const int threads = static_cast<int>(args.get_int("threads", 1));

  ThreadPolicy policy;
  policy.parallel = threads != 1;
  policy.ctx.max_threads = threads > 1 ? threads : 0;

  // A clustered instance whose SOURCE side carries `side_links` internal
  // links: nodes_s - 1 spanning-tree links plus the remainder as extras.
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = side_links / 2 + 1;
  params.extra_edges_s = side_links - (params.nodes_s - 1);
  params.nodes_t = 4;
  params.extra_edges_t = 1;
  params.bottleneck_links = bottleneck;
  params.bottleneck_caps = {1, 3};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const FlowDemand demand{g.source, g.sink, d};
  const AssignmentSet forward =
      enumerate_assignments(g.net, partition, d, {AssignmentMode::kForwardOnly});
  const SideProblem side = make_side_problem(g.net, demand, partition, true);

  std::cout << "E26: side-array sweep strategies, |E_side|="
            << side.view.num_edges() << " (2^" << side.view.num_edges()
            << " configurations), |D|=" << forward.size() << ", d=" << d
            << ", k=" << bottleneck << ", threads="
            << (threads == 1 ? "serial" : std::to_string(threads)) << "\n\n";

  const Row r = run_strategies(side, forward, d, policy);

  TextTable table({"scratch_ms", "bit_ms", "bit_x_scratch", "scratch_calls",
                   "bit_calls", "coverage", "identical"});
  table.new_row()
      .add_cell(r.scratch_ms, 2)
      .add_cell(r.bit_ms, 2)
      .add_cell(r.scratch_ms / r.bit_ms, 2)
      .add_cell(r.scratch_calls)
      .add_cell(r.bit_calls)
      .add_cell(r.wordwise_coverage(), 4)
      .add_cell(r.identical ? "yes" : "NO");
  table.print(std::cout);

  // Fold timing: the exponential step of every probability-only query,
  // on this side's table under its own failure probabilities. Best of
  // five rounds, each about 2^24 configurations.
  const int m = side.view.num_edges();
  const SlabMaskTable slab_table = slab_form(r.array, m);
  const std::vector<double> probs = side.view.failure_probs();
  const int fold_reps = std::max(1, (1 << 24) >> m);
  double fold_ms = 0.0;
  double fold_total = 0.0;
  for (int round = 0; round < 5; ++round) {
    Stopwatch sw;
    for (int rep = 0; rep < fold_reps; ++rep) {
      fold_total = bucket_side_array(side, slab_table, probs).total;
    }
    const double ms = sw.elapsed_ms() / fold_reps;
    if (round == 0 || ms < fold_ms) fold_ms = ms;
  }
  const double fold_mconfigs_per_s =
      static_cast<double>(slab_table.size()) / fold_ms / 1e3;
  std::cout << "\nfold: " << fold_ms << " ms per fold, "
            << fold_mconfigs_per_s << " Mconfigs/s (total " << fold_total
            << ")\n";

  // Repair leg: every side link toggled +1 and back.
  const RepairRow repair = run_repairs(g.net, demand, partition, forward,
                                       policy);
  const double repair_ms = repair.repair_ms / repair.sweeps;
  const double repair_full_ms = repair.full_ms / repair.sweeps;
  const double seed_share =
      static_cast<double>(repair.lanes_by_seed) /
      static_cast<double>(repair.decisions);
  std::cout << "\nrepair (" << repair.sweeps
            << " capacity toggles, +1 and back):\n";
  TextTable repair_table({"full_ms", "repair_ms", "repair_x_full",
                          "full_calls", "repair_calls", "seed_share",
                          "identical"});
  repair_table.new_row()
      .add_cell(repair_full_ms, 3)
      .add_cell(repair_ms, 3)
      .add_cell(repair_full_ms / repair_ms, 2)
      .add_cell(repair.full_calls / static_cast<std::uint64_t>(repair.sweeps))
      .add_cell(repair.repair_calls /
                static_cast<std::uint64_t>(repair.sweeps))
      .add_cell(seed_share, 4)
      .add_cell(repair.matches ? "yes" : "NO");
  repair_table.print(std::cout);

  // End-to-end cross-check: the full decomposition must produce the same
  // reliability whichever sweep built the side arrays. It runs at demand
  // 1: the clusters are connected, so R > 0 at every size and a broken
  // accumulation cannot hide behind 0 == 0 (at d = 2 the 20-link
  // instance has R = 0).
  const FlowDemand check_demand{g.source, g.sink, 1};
  BottleneckOptions scratch_opts;
  scratch_opts.side = strategy_options(SideSweepStrategy::kScratch, policy);
  BottleneckOptions bit_opts;
  bit_opts.side = strategy_options(SideSweepStrategy::kBitParallel, policy);
  const double r_scratch =
      reliability_bottleneck(g.net, check_demand, partition, scratch_opts)
          .reliability;
  const double r_bit =
      reliability_bottleneck(g.net, check_demand, partition, bit_opts)
          .reliability;
  const double delta = std::abs(r_scratch - r_bit);
  const bool nonzero = r_scratch > 0.0 && r_bit > 0.0;
  std::cout << "reliability at d=1: scratch=" << r_scratch
            << " bit=" << r_bit << " |delta|=" << delta
            << (delta < 1e-12 ? " (ok)" : " (DRIFT)")
            << (nonzero ? "" : " (R == 0: the check shows nothing)") << "\n";

  // Zero-copy regression guard: trace one decomposition run and count the
  // span markers. The side views must come from NetworkView construction
  // ("network_view" spans), never from a copied FlowNetwork
  // ("induced_subgraph" spans) — CI diffs these counts via bench_compare.
  Tracer::set_enabled(true);
  Tracer::clear();
  reliability_bottleneck(g.net, demand, partition, bit_opts);
  const std::string trace = Tracer::export_chrome_json();
  Tracer::set_enabled(false);
  const std::uint64_t subgraph_copies =
      count_occurrences(trace, "{\"name\": \"induced_subgraph\"");
  const std::uint64_t view_builds =
      count_occurrences(trace, "{\"name\": \"network_view\"");
  const bool zero_copy = subgraph_copies == 0 && view_builds > 0;
  std::cout << "decomposition side views: " << view_builds
            << " zero-copy builds, " << subgraph_copies
            << " FlowNetwork copies" << (zero_copy ? " (ok)" : " (COPYING)")
            << "\n";

  bench::BenchReport report("side_array_sweep");
  report.metric("side_links", static_cast<std::int64_t>(side.view.num_edges()))
      .metric("assignments", static_cast<std::uint64_t>(forward.size()))
      .metric("demand", static_cast<std::int64_t>(d))
      .metric("seed", seed)
      .metric("threads", static_cast<std::int64_t>(threads))
      .metric("reliability_delta", delta)
      .metric("reliability_nonzero", nonzero)
      .metric("fold.ms", fold_ms)
      .metric("fold.mconfigs_per_s", fold_mconfigs_per_s)
      .metric("trace.subgraph_copies", subgraph_copies)
      .metric("trace.view_builds", view_builds)
      // The per_assignment. prefix matches records from before the
      // polymatroid engine was retired, so bench_compare pairs the keys
      // across commits.
      .metric("per_assignment.scratch_ms", r.scratch_ms)
      .metric("per_assignment.bit_ms", r.bit_ms)
      .metric("per_assignment.scratch_calls", r.scratch_calls)
      .metric("per_assignment.bit_calls", r.bit_calls)
      .metric("per_assignment.lanes_decided_wordwise", r.lanes_wordwise)
      .metric("per_assignment.scalar_residue", r.scalar_residue)
      .metric("per_assignment.bit_speedup_vs_scratch", r.scratch_ms / r.bit_ms)
      .metric("per_assignment.wordwise_coverage", r.wordwise_coverage())
      .metric("per_assignment.call_reduction",
              static_cast<double>(r.scratch_calls) /
                  static_cast<double>(r.bit_calls))
      .metric("per_assignment.identical", r.identical)
      .metric("repair.ms", repair_ms)
      .metric("repair.full_ms", repair_full_ms)
      .metric("repair.speedup_vs_full", repair_full_ms / repair_ms)
      .metric("repair.full_calls", repair.full_calls)
      .metric("repair.repair_calls", repair.repair_calls)
      .metric("repair.seed_share", seed_share)
      .metric("repair_matches_full", repair.matches);
  const bool json_ok = bench::write_if_requested(report, args);

  return json_ok && delta < 1e-12 && nonzero && zero_copy && r.identical &&
                 repair.matches
             ? 0
             : 1;
}
