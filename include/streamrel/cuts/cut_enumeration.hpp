#pragma once
// Enumeration of small minimal s-t cut sets — the candidate bottleneck
// link sets the decomposition algorithm can exploit.

#include <cstdint>
#include <vector>

#include "streamrel/graph/flow_network.hpp"

namespace streamrel {

struct CutEnumerationOptions {
  int max_size = 4;  ///< only cut sets with at most this many edges
  /// Subset budget, counted in the order of an exhaustive scan (see
  /// enumerate_minimal_cutsets); cuts past it are not returned.
  std::uint64_t max_subsets_examined = 5'000'000;
  /// Return at most this many cut sets (the first ones in result order).
  std::size_t max_results = 10'000;
};

/// All minimal s-t disconnecting edge sets of cardinality <= max_size
/// (direction-aware, like removal_disconnects). Each result is sorted by
/// edge id. Results are ordered by size, then by edge mask value (the
/// sum of 2^id): this is colex/Gosper order, so {1,2} comes before {0,3}.
/// find_candidate_partitions relies on this order.
///
/// The caps are defined by an exhaustive scan that tests every subset of
/// size lower..max_size in that same order, where lower is the smallest
/// cut size: a cut whose 1-based position in the scan exceeds
/// max_subsets_examined is dropped, and the survivors are truncated to
/// max_results. A network where s already cannot reach t has no minimal
/// cut and yields nothing.
///
/// Work: an exclusion path-branching search over the part of the network
/// reachable from s. A search node is an edge set of at most max_size
/// edges; it costs a few BFS passes over 64-bit node sets (one to find a
/// path, at most max_size more to bound what is left, two to test a
/// disconnecting set for minimality). One pass visits no edge set twice
/// and reaches each minimal cut exactly once, so it is bounded by the
/// number of subsets of size <= max_size, and on overlays with short
/// s-t paths it visits a tiny fraction of them. When the subset cap can
/// bind, shallow passes first find the smallest cut size.
/// Throws std::invalid_argument for bad endpoints or more than 63 edges.
std::vector<std::vector<EdgeId>> enumerate_minimal_cutsets(
    const FlowNetwork& net, NodeId s, NodeId t,
    const CutEnumerationOptions& options = {});

}  // namespace streamrel
