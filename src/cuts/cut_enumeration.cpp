#include "streamrel/cuts/cut_enumeration.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "streamrel/util/bitops.hpp"

namespace streamrel {

namespace {

constexpr int kMaxNodes = kMaxMaskBits + 1;

/// Binomial coefficients C(n, k) for n, k <= 63. Every entry fits: the
/// largest is C(63, 31) < 2^63.
const std::array<std::array<std::uint64_t, kMaxNodes>, kMaxNodes>&
binomials() {
  static const auto table = [] {
    std::array<std::array<std::uint64_t, kMaxNodes>, kMaxNodes> c{};
    for (std::size_t n = 0; n < c.size(); ++n) {
      c[n][0] = 1;
      for (std::size_t k = 1; k <= n; ++k) {
        c[n][k] = c[n - 1][k - 1] + (k < n ? c[n - 1][k] : 0);
      }
    }
    return c;
  }();
  return table;
}

/// Position of `subset` among the subsets of its size in increasing mask
/// order (Gosper's order, which is colex): sum of C(element, i + 1) over
/// the elements in ascending order.
std::uint64_t colex_rank(Mask subset) {
  const auto& c = binomials();
  std::uint64_t rank = 0;
  std::size_t i = 1;
  for (Mask rest = subset; rest != 0; rest &= rest - 1, ++i) {
    rank += c[static_cast<std::size_t>(lowest_bit(rest))][i];
  }
  return rank;
}

/// How many subsets the scan examines before its first subset of size
/// `size` when it starts at size `lower`: sum of C(m, j) for j in
/// [lower, size). At most 2^m <= 2^63, so no overflow.
std::uint64_t subsets_before(int m, int lower, int size) {
  const auto& c = binomials();
  std::uint64_t total = 0;
  for (int j = std::max(lower, 0); j < size && j <= m; ++j) {
    total += c[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)];
  }
  return total;
}

/// Largest cut size whose first subset the scan still examines under
/// `cap` when it starts at `lower`; sizes above it are all cut off.
int largest_examined_size(int m, int lower, int max_size, std::uint64_t cap) {
  int size = lower;
  while (size < max_size && subsets_before(m, lower, size + 1) < cap) ++size;
  return size;
}

/// The part of the network reachable from s, with nodes renumbered
/// densely from 0 (s itself). Edges keep their ids; out[u] / in[u] hold
/// the edges that can be traversed out of / into u (both ends of an
/// undirected edge, the tail / head of a directed one), and u ^ ends[e]
/// is the far end of e. A graph with at most 63 edges reaches at most 64
/// nodes, so node sets are single words and every search step is
/// allocation-free.
class ReachableGraph {
 public:
  ReachableGraph(const FlowNetwork& net, NodeId s, NodeId t) {
    std::vector<int> compact(static_cast<std::size_t>(net.num_nodes()), -1);
    std::array<NodeId, kMaxNodes> queue{};
    compact[static_cast<std::size_t>(s)] = 0;
    queue[0] = s;
    int nodes = 1;
    for (int head = 0; head < nodes; ++head) {
      const NodeId n = queue[static_cast<std::size_t>(head)];
      for (EdgeId id : net.incident_edges(n)) {
        const Edge& e = net.edge(id);
        if (e.directed() && e.u != n) continue;
        const NodeId next = e.other(n);
        if (compact[static_cast<std::size_t>(next)] != -1) continue;
        compact[static_cast<std::size_t>(next)] = nodes;
        queue[static_cast<std::size_t>(nodes++)] = next;
      }
    }
    sink_ = compact[static_cast<std::size_t>(t)];
    if (sink_ < 0) return;
    for (EdgeId id = 0; id < net.num_edges(); ++id) {
      const Edge& e = net.edge(id);
      const int u = compact[static_cast<std::size_t>(e.u)];
      const int v = compact[static_cast<std::size_t>(e.v)];
      if (u < 0) continue;  // never traversable from s's side
      const auto i = static_cast<std::size_t>(id);
      ends_[i] = u ^ v;
      tail_[i] = u;
      out_[static_cast<std::size_t>(u)] |= bit(id);
      in_[static_cast<std::size_t>(v)] |= bit(id);
      if (e.directed()) {
        directed_ |= bit(id);
      } else {
        out_[static_cast<std::size_t>(v)] |= bit(id);
        in_[static_cast<std::size_t>(u)] |= bit(id);
      }
    }
  }

  bool sink_reachable() const noexcept { return sink_ >= 0; }
  Mask sink_bit() const noexcept { return Mask{1} << sink_; }

  /// Nodes s reaches in G - removed.
  Mask reached_from_source(Mask removed) const noexcept {
    return closure(1, out_, ~removed);
  }

  /// Nodes that reach the sink in G - removed.
  Mask reaching_sink(Mask removed) const noexcept {
    return closure(sink_bit(), in_, ~removed);
  }

  /// True when every edge of `removed` runs, in a direction it can be
  /// traversed, from a node in `from_s` to a node in `to_t`.
  bool all_bridging(Mask removed, Mask from_s, Mask to_t) const noexcept {
    for (; removed != 0; removed &= removed - 1) {
      const auto e = static_cast<std::size_t>(lowest_bit(removed));
      const Mask u = Mask{1} << tail_[e];
      const Mask v = Mask{1} << (tail_[e] ^ ends_[e]);
      const bool forward = (from_s & u) != 0 && (to_t & v) != 0;
      const bool backward = (directed_ & bit(static_cast<int>(e))) == 0 &&
                            (from_s & v) != 0 && (to_t & u) != 0;
      if (!forward && !backward) return false;
    }
    return true;
  }

  /// The edges of an s->t path in G - removed with the fewest edges
  /// outside `free_edges`, or 0 when s cannot reach t.
  Mask find_path(Mask removed, Mask free_edges) const noexcept {
    std::array<EdgeId, kMaxNodes> parent{};
    if (!search(removed, free_edges, parent)) return 0;
    Mask path = 0;
    for (int n = sink_; n != 0;) {
      const EdgeId e = parent[static_cast<std::size_t>(n)];
      path |= bit(e);
      n ^= ends_[static_cast<std::size_t>(e)];
    }
    return path;
  }

 private:
  /// Nodes reachable from `start` over `usable` edges of `adjacency`.
  Mask closure(Mask start, const std::array<Mask, kMaxNodes>& adjacency,
               Mask usable) const noexcept {
    Mask seen = start;
    for (Mask frontier = start; frontier != 0;) {
      Mask next = 0;
      for (; frontier != 0; frontier &= frontier - 1) {
        const int u = lowest_bit(frontier);
        for (Mask edges = adjacency[static_cast<std::size_t>(u)] & usable;
             edges != 0; edges &= edges - 1) {
          next |= Mask{1} << (u ^ ends_[static_cast<std::size_t>(
                                       lowest_bit(edges))]);
        }
      }
      frontier = next & ~seen;
      seen |= next;
    }
    return seen;
  }

  /// 0-1 BFS over node words: edges in `free_edges` cost nothing, the
  /// rest one each. Each round closes the current layer under free
  /// edges, then steps one costed edge out. Records each node's
  /// discovering edge in `parent`.
  bool search(Mask removed, Mask free_edges,
              std::array<EdgeId, kMaxNodes>& parent) const noexcept {
    const Mask target = sink_bit();
    Mask seen = 1;  // s is node 0
    Mask layer = 1;
    const auto step = [&](Mask from, Mask usable, Mask& reached) {
      for (; from != 0; from &= from - 1) {
        const int u = lowest_bit(from);
        for (Mask edges = out_[static_cast<std::size_t>(u)] & usable;
             edges != 0; edges &= edges - 1) {
          const int e = lowest_bit(edges);
          const int w = u ^ ends_[static_cast<std::size_t>(e)];
          const Mask w_bit = Mask{1} << w;
          if ((seen & w_bit) != 0) continue;
          seen |= w_bit;
          reached |= w_bit;
          parent[static_cast<std::size_t>(w)] = e;
        }
      }
    };
    const Mask free_usable = free_edges & ~removed;
    const Mask costed_usable = ~free_edges & ~removed;
    while (layer != 0) {
      for (Mask grown = layer; grown != 0;) {
        Mask added = 0;
        step(grown, free_usable, added);
        layer |= added;
        grown = added;
      }
      if ((seen & target) != 0) return true;
      Mask next = 0;
      step(layer, costed_usable, next);
      layer = next;
    }
    return false;
  }

  std::array<Mask, kMaxNodes> out_{};
  std::array<Mask, kMaxNodes> in_{};
  std::array<int, kMaxMaskBits> ends_{};
  std::array<int, kMaxMaskBits> tail_{};
  Mask directed_ = 0;
  int sink_ = -1;
};

/// Exclusion path branching: every minimal cut C with |C| <= max_size is
/// reached exactly once, at the node removed == C, and no subset is
/// visited twice. At a node, some s->t path P survives in G - removed;
/// any cut extending `removed` and avoiding `excluded` must take a
/// non-excluded edge of P, so branch i takes the i-th such edge (in any
/// fixed order) and excludes the ones before it. P is chosen with the
/// fewest non-excluded edges, and a node is dropped when more paths,
/// pairwise disjoint outside the excluded set, survive than edges may
/// still be added.
class PathBrancher {
 public:
  PathBrancher(const ReachableGraph& graph, int max_size)
      : graph_(graph), max_size_(max_size) {}

  void run(Mask removed, Mask excluded, int size) {
    const Mask path = graph_.find_path(removed, excluded);
    if (path == 0) {
      if (is_minimal(removed)) found_.push_back(removed);
      return;
    }
    const Mask branch_edges = path & ~excluded;
    if (!can_cut_within(removed | branch_edges, excluded,
                        max_size_ - size - 1)) {
      return;
    }
    for (Mask rest = branch_edges; rest != 0; rest &= rest - 1) {
      const Mask f = rest & (~rest + 1);
      run(removed | f, excluded, size + 1);
      excluded |= f;
    }
  }

  std::vector<Mask>& found() noexcept { return found_; }

 private:
  /// False when `budget` edges (not in `excluded`) cannot cut every
  /// path that survives `blocked`: budget + 1 paths pairwise disjoint
  /// outside the excluded set each need an edge of their own. A negative
  /// budget means nothing may be added at all.
  bool can_cut_within(Mask blocked, Mask excluded, int budget) const {
    for (int paths = 0; paths <= budget; ++paths) {
      const Mask path = graph_.find_path(blocked, excluded);
      if (path == 0) return true;
      blocked |= path & ~excluded;
    }
    return false;
  }

  /// `removed` disconnects s from t. It is minimal when putting back any
  /// one of its edges reconnects them, that is, when each runs (in a
  /// direction it can be traversed) from a node s still reaches to a
  /// node that still reaches t.
  bool is_minimal(Mask removed) const noexcept {
    return graph_.all_bridging(removed, graph_.reached_from_source(removed),
                               graph_.reaching_sink(removed));
  }

  const ReachableGraph& graph_;
  int max_size_;
  std::vector<Mask> found_;
};

std::vector<Mask> cuts_up_to(const ReachableGraph& graph, int max_size) {
  PathBrancher brancher(graph, max_size);
  brancher.run(0, 0, 0);
  return std::move(brancher.found());
}

bool by_size_then_mask(Mask a, Mask b) {
  const int size_a = popcount(a);
  const int size_b = popcount(b);
  return size_a != size_b ? size_a < size_b : a < b;
}

}  // namespace

std::vector<std::vector<EdgeId>> enumerate_minimal_cutsets(
    const FlowNetwork& net, NodeId s, NodeId t,
    const CutEnumerationOptions& options) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad endpoints");
  }
  if (net.num_edges() > kMaxMaskBits) {
    throw std::invalid_argument(
        "cut enumeration requires <= 63 edges (mask-based search)");
  }
  std::vector<std::vector<EdgeId>> out;
  const ReachableGraph graph(net, s, t);
  // s cannot reach t even with every edge up: no cut is minimal.
  if (!graph.sink_reachable() || options.max_size < 1) return out;

  const int m = net.num_edges();
  const int max_size = std::min(options.max_size, m);
  const std::uint64_t cap = options.max_subsets_examined;

  // Sizes past the subset cap never reach the scan's tests. The cutoff
  // depends on the smallest cut size, so when the cap can bind we first
  // deepen one size at a time until a cut appears; otherwise one pass to
  // max_size finds everything.
  int depth = largest_examined_size(m, 1, max_size, cap);
  std::vector<Mask> cuts;
  if (depth < max_size) {
    int size = 1;
    while ((cuts = cuts_up_to(graph, size)).empty() && size < max_size) {
      ++size;
    }
    depth = largest_examined_size(m, size, max_size, cap);
    if (depth > size) cuts = cuts_up_to(graph, depth);
  } else {
    cuts = cuts_up_to(graph, max_size);
  }
  if (cuts.empty()) return out;
  std::sort(cuts.begin(), cuts.end(), by_size_then_mask);

  // Keep exactly what the scan would: a cut survives when its 1-based
  // position in the scan's (size, Gosper) order is within the subset cap,
  // and only the first max_results survivors are returned.
  const int lower = popcount(cuts.front());
  for (const Mask cut : cuts) {
    if (out.size() >= options.max_results) break;
    const int size = popcount(cut);
    const std::uint64_t position =
        subsets_before(m, lower, size) + colex_rank(cut) + 1;
    if (position > cap) break;  // positions increase along the sorted list
    const std::vector<int> ids = bits_of(cut);
    out.emplace_back(ids.begin(), ids.end());
  }
  return out;
}

}  // namespace streamrel
