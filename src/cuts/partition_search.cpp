#include "streamrel/cuts/partition_search.hpp"

#include <algorithm>

#include "streamrel/graph/graph_algos.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

// Lower (max side, k) is better: the side term drives the 2^alpha|E|
// factor, the k term the assignment count.
bool better(const PartitionStats& a, const PartitionStats& b) {
  const int side_a = std::max(a.edges_s, a.edges_t);
  const int side_b = std::max(b.edges_s, b.edges_t);
  if (side_a != side_b) return side_a < side_b;
  return a.k < b.k;
}

}  // namespace

std::vector<PartitionChoice> find_candidate_partitions(
    const FlowNetwork& net, NodeId s, NodeId t,
    const PartitionSearchOptions& options, const ExecContext* ctx) {
  TraceSpan span("partition_search", "search");
  std::vector<PartitionChoice> candidates;

  auto consider = [&](const std::vector<EdgeId>& cut) {
    if (ctx) ctx->check();
    auto part = partition_from_cut_edges(net, s, t, cut);
    if (!part) return;
    PartitionStats stats = analyze_partition(net, s, t, *part);
    if (stats.k > options.max_k) return;
    if (std::max(stats.edges_s, stats.edges_t) > options.max_side_edges) {
      return;
    }
    for (const PartitionChoice& existing : candidates) {
      if (existing.partition.side_s == part->side_s) return;  // duplicate
    }
    candidates.push_back(PartitionChoice{std::move(*part), stats});
  };

  // Bridges that separate s from t are ideal k = 1 bottlenecks.
  for (EdgeId bridge : find_bridges(net)) {
    consider({bridge});
  }

  // The min-cardinality cut works on networks of any size.
  const MinCut cardinality_cut = min_cardinality_cut(net, s, t);
  if (cardinality_cut.value > 0) consider(cardinality_cut.edges);

  // Every minimal cut set of up to max_k links (mask-sized networks only).
  if (net.fits_mask()) {
    CutEnumerationOptions enum_opts = options.enumeration;
    enum_opts.max_size = std::min(enum_opts.max_size, options.max_k);
    for (const auto& cut : enumerate_minimal_cutsets(net, s, t, enum_opts)) {
      consider(cut);
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const PartitionChoice& a, const PartitionChoice& b) {
              return better(a.stats, b.stats);
            });
  span.arg("candidates", static_cast<std::uint64_t>(candidates.size()));
  return candidates;
}

std::optional<PartitionChoice> find_best_partition(
    const FlowNetwork& net, NodeId s, NodeId t,
    const PartitionSearchOptions& options, const ExecContext* ctx) {
  auto candidates = find_candidate_partitions(net, s, t, options, ctx);
  if (candidates.empty()) return std::nullopt;
  return std::move(candidates.front());
}

}  // namespace streamrel
