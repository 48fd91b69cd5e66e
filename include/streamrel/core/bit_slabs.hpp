#pragma once
// Bit-parallel slab layout over side failure configurations.
//
// The side-array sweep (§III-C) and the probability fold both walk the
// 2^|E_side| configurations in Gray-code rank order. A SLAB is a block of
// 64 consecutive ranks, stored TRANSPOSED: one uint64_t per side edge
// whose bit L answers "is edge e alive in the configuration of rank
// base + L?". In this layout one word operation touches 64
// configurations at once — a certificate check becomes a handful of ANDs
// and a feasibility class like connectivity is decided by a 64-lane BFS.
//
// The fill is O(|E_side|) per slab, not O(64 |E_side|), thanks to a Gray
// identity: for a 64-aligned base, base + L splits XOR-disjointly into
// base | L, so
//
//   gray_code(base + L) == gray_code(base) ^ gray_code(L).
//
// gray_code(L) for L < 64 only occupies bits 0..5, so the lane pattern of
// edge e — bit L set iff bit e of gray_code(L) — is a CONSTANT word
// low_pattern(e) (zero for e >= 6), and the slab word of edge e is that
// pattern XOR-broadcast with bit e of gray_code(base):
//
//   word(e) = low_pattern(e) ^ (bit e of gray_code(base) ? ~0 : 0).
//
// The probability fold (bucket_side_array) uses the same identity
// without materializing words: a configuration's probability factors
// into a per-slab product over the edges >= 6 times a 64-entry table of
// low-edge products, so it is plain scalar code with no CPU dispatch.
//
// SlabMaskTable is the matching rank-ordered resting form of a side
// array: by_rank[r] holds the realized-assignment mask of configuration
// gray_code(r), so the fold reads it with unit stride, slab by slab.

#include <cstdint>
#include <span>
#include <vector>

#include "streamrel/util/bitops.hpp"

namespace streamrel {

/// Transposed 64-configuration window over up to kMaxMaskBits side edges.
class BitSlabs {
 public:
  /// One lane word per edge; all words start at zero (no slab filled).
  explicit BitSlabs(int num_edges);

  /// Loads the slab of ranks [base_rank, base_rank + 64). Requires
  /// base_rank % 64 == 0 (throws otherwise). Callers working a partial
  /// slab (fewer than 64 ranks remain) mask the high lanes off
  /// themselves — the undecided-lane masks of the sweep already do.
  void fill(Mask base_rank);

  int num_edges() const noexcept { return static_cast<int>(words_.size()); }

  /// Lane word of edge e: bit L set iff e is alive at rank base + L.
  std::uint64_t word(int e) const {
    return words_[static_cast<std::size_t>(e)];
  }
  std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// The constant lane pattern of edge e over gray_code(0..63) — exposed
  /// so tests can cross-check fill() against the per-lane definition.
  static std::uint64_t low_pattern(int e) noexcept;

 private:
  std::vector<std::uint64_t> words_;
};

/// A side array at rest, in Gray-code rank order: by_rank[r] is the mask
/// of assignments realized by configuration gray_code(r). Rank order is
/// what every consumer walks (sweeps, folds, slabs), so this is the form
/// QuerySession caches; at_config() serves point lookups through the
/// inverse Gray permutation.
struct SlabMaskTable {
  std::vector<Mask> by_rank;
  int num_links = 0;  ///< |E_side|: by_rank.size() == 2^num_links

  std::size_t size() const noexcept { return by_rank.size(); }
  bool empty() const noexcept { return by_rank.empty(); }
  void clear() noexcept {
    by_rank.clear();
    num_links = 0;
  }

  Mask at_rank(Mask rank) const {
    return by_rank[static_cast<std::size_t>(rank)];
  }
  /// Realized mask of a configuration-value lookup (the historical
  /// config-indexed array's operator[]).
  Mask at_config(Mask config) const {
    return by_rank[static_cast<std::size_t>(gray_rank(config))];
  }

  bool operator==(const SlabMaskTable& other) const = default;
};

/// Permutes a configuration-indexed side array (array[config]) into rank
/// order, and back. Both directions are exact inverses.
SlabMaskTable slab_form(const std::vector<Mask>& config_indexed,
                        int num_links);
std::vector<Mask> config_form(const SlabMaskTable& table);

}  // namespace streamrel
