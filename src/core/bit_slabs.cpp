#include "streamrel/core/bit_slabs.hpp"

#include <array>
#include <stdexcept>

namespace streamrel {

namespace {

// Lane pattern of edge e over the first 64 Gray codes: bit L set iff
// bit e of gray_code(L). gray_code(L) for L < 64 occupies bits 0..5, so
// only six patterns are nonzero.
constexpr std::array<std::uint64_t, 6> kLowPatterns = [] {
  std::array<std::uint64_t, 6> a{};
  for (int e = 0; e < 6; ++e) {
    for (int L = 0; L < 64; ++L) {
      if (test_bit(gray_code(static_cast<Mask>(L)), e)) {
        a[static_cast<std::size_t>(e)] |= bit(L);
      }
    }
  }
  return a;
}();

}  // namespace

BitSlabs::BitSlabs(int num_edges) {
  if (num_edges < 0 || num_edges > kMaxMaskBits) {
    throw std::invalid_argument("BitSlabs: edge count out of mask range");
  }
  words_.assign(static_cast<std::size_t>(num_edges), 0);
}

std::uint64_t BitSlabs::low_pattern(int e) noexcept {
  return e < 6 ? kLowPatterns[static_cast<std::size_t>(e)] : 0;
}

void BitSlabs::fill(Mask base_rank) {
  if ((base_rank & 63) != 0) {
    throw std::invalid_argument("BitSlabs::fill: base rank must be 64-aligned");
  }
  // gray_code(base + L) == gray_code(base) ^ gray_code(L) for an aligned
  // base (base | L splits XOR-disjointly, even across the bit-5/6 seam),
  // so each edge's word is its constant low pattern XOR a broadcast of
  // that edge's bit in gray_code(base).
  const Mask g = gray_code(base_rank);
  const int m = num_edges();
  for (int e = 0; e < m; ++e) {
    words_[static_cast<std::size_t>(e)] =
        low_pattern(e) ^ (test_bit(g, e) ? ~std::uint64_t{0} : 0);
  }
}

SlabMaskTable slab_form(const std::vector<Mask>& config_indexed,
                        int num_links) {
  if (config_indexed.size() != (std::size_t{1} << num_links)) {
    throw std::invalid_argument("slab_form: array size is not 2^num_links");
  }
  SlabMaskTable table;
  table.num_links = num_links;
  table.by_rank.resize(config_indexed.size());
  for (std::size_t rank = 0; rank < config_indexed.size(); ++rank) {
    table.by_rank[rank] =
        config_indexed[static_cast<std::size_t>(gray_code(rank))];
  }
  return table;
}

std::vector<Mask> config_form(const SlabMaskTable& table) {
  std::vector<Mask> array(table.by_rank.size());
  for (std::size_t rank = 0; rank < table.by_rank.size(); ++rank) {
    array[static_cast<std::size_t>(gray_code(rank))] = table.by_rank[rank];
  }
  return array;
}

}  // namespace streamrel
