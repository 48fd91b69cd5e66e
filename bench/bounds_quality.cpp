// E22 — quality of the polynomial-time reliability bounds: how tight is
// the [lower, upper] envelope around the exact value across workload
// families, and how often does it decide feasibility questions (e.g.
// "is R >= 0.99?") without any exponential work? A second section times
// the bounds and the partition search on 30-link two-cluster overlays,
// where both are dominated by minimal-cut enumeration.

#include <algorithm>
#include <iostream>

#include "bench_harness.hpp"
#include "streamrel/streamrel.hpp"
#include "streamrel/util/cli.hpp"
#include "streamrel/util/stopwatch.hpp"
#include "streamrel/util/table.hpp"

using namespace streamrel;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::BenchReport record("bounds_quality");
  const int trials = static_cast<int>(args.get_int("trials", 40));

  std::cout << "E22: bound tightness across workload families (" << trials
            << " instances each, d = 2)\n\n";
  TextTable table({"family", "mean width", "max width", "mean rel err of mid",
                   "envelope holds"});

  Xoshiro256 rng(4711);
  struct Family {
    const char* name;
    int id;
  };
  for (const Family family : {Family{"two-cluster", 0}, Family{"random", 1},
                              Family{"ladder", 2}}) {
    OnlineStats width, mid_err;
    double max_width = 0.0;
    bool holds = true;
    for (int trial = 0; trial < trials; ++trial) {
      GeneratedNetwork g;
      if (family.id == 0) {
        ClusteredParams params;
        params.bottleneck_links = 2;
        params.bottleneck_caps = {2, 2};
        g = clustered_bottleneck(rng, params);
      } else if (family.id == 1) {
        g = random_connected(rng, 7, 7, {1, 3}, {0.05, 0.3});
      } else {
        g = ladder_network(5, 2, 0.1);
      }
      const FlowDemand demand{g.source, g.sink, 2};
      const ReliabilityBounds bounds = reliability_bounds(g.net, demand);
      const double exact = reliability_naive(g.net, demand).reliability;
      holds &= bounds.contains(exact);
      const double w = bounds.upper - bounds.lower;
      width.add(w);
      max_width = std::max(max_width, w);
      const double mid = 0.5 * (bounds.upper + bounds.lower);
      if (exact > 0.0) mid_err.add(std::abs(mid - exact) / exact);
    }
    table.new_row()
        .add_cell(family.name)
        .add_cell(width.mean(), 4)
        .add_cell(max_width, 4)
        .add_cell(mid_err.mean(), 4)
        .add_cell(holds ? "yes" : "NO");
    const std::string prefix = family.name;
    record.metric(bench::key(prefix, "mean_width"), width.mean())
        .metric(bench::key(prefix, "max_width"), max_width)
        .metric(bench::key(prefix, "mid_rel_err"), mid_err.mean())
        .metric(bench::key(prefix, "holds"), holds);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the envelope always holds; it is tightest "
               "on bottlenecked topologies (the critical cut is in the "
               "family) and loosest on well-connected random graphs.\n";

  // Cost on 30-link overlays: two 14-link clusters joined by two links.
  // The bounds enumerate minimal cuts of up to 8 links, the partition
  // search those of up to 4; the exact value comes from the
  // decomposition the partition search enables.
  const int large_trials = static_cast<int>(args.get_int("large-trials", 10));
  OnlineStats search_ms, bounds_ms;
  bool large_holds = true;
  for (int trial = 0; trial < large_trials; ++trial) {
    ClusteredParams params;
    params.nodes_s = 8;
    params.extra_edges_s = 7;
    params.nodes_t = 8;
    params.extra_edges_t = 7;
    params.bottleneck_links = 2;
    params.bottleneck_caps = {2, 3};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const FlowDemand demand{g.source, g.sink, 2};
    Stopwatch watch;
    const auto candidates = find_candidate_partitions(g.net, g.source, g.sink);
    search_ms.add(watch.elapsed_ms());
    watch.reset();
    const ReliabilityBounds bounds = reliability_bounds(g.net, demand);
    bounds_ms.add(watch.elapsed_ms());
    const double exact = compute_reliability(g.net, demand).result.reliability;
    large_holds &= !candidates.empty() && bounds.contains(exact);
  }
  std::cout << "\n30-link two-cluster overlays (" << large_trials
            << " instances, mean per instance): partition search "
            << search_ms.mean() << " ms, bounds " << bounds_ms.mean()
            << " ms, envelope holds: " << (large_holds ? "yes" : "NO")
            << "\n";
  record.metric("partition_search_ms", search_ms.mean())
      .metric("bounds_ms", bounds_ms.mean())
      .metric("two-cluster-30.holds", large_holds);
  const bool json_ok = bench::write_if_requested(record, args);
  return json_ok ? 0 : 1;
}
