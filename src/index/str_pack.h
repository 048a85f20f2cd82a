// Sort-Tile-Recursive packing: groups items into nodes of at most
// `capacity` members using x-slabs subdivided by y (Leutenegger et al.).
// Shared by both tree bulk loaders.
#ifndef WSK_INDEX_STR_PACK_H_
#define WSK_INDEX_STR_PACK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/macros.h"

namespace wsk {

// Returns groups of indexes into `centers`, each of size <= capacity.
// Deterministic. The items are cut into S = ceil(sqrt(P)) x-slabs, where
// P = ceil(n / capacity), and each slab into groups of `capacity`, so every
// slab whose size `capacity` does not divide ends in a partial group: a
// level holds fewer than P + S groups, not P (5,000 objects at capacity
// 100 pack into 56 leaves, not 50).
inline std::vector<std::vector<uint32_t>> StrPack(
    const std::vector<Point>& centers, uint32_t capacity) {
  WSK_CHECK(capacity >= 2);
  const size_t n = centers.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

  const size_t num_nodes = (n + capacity - 1) / capacity;
  const size_t num_slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_nodes))));
  const size_t slab_size = num_slabs == 0 ? n : (n + num_slabs - 1) / num_slabs;

  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (centers[a].x != centers[b].x) return centers[a].x < centers[b].x;
    if (centers[a].y != centers[b].y) return centers[a].y < centers[b].y;
    return a < b;
  });

  std::vector<std::vector<uint32_t>> groups;
  groups.reserve(num_nodes);
  for (size_t slab_start = 0; slab_start < n; slab_start += slab_size) {
    const size_t slab_end = std::min(n, slab_start + slab_size);
    std::sort(order.begin() + slab_start, order.begin() + slab_end,
              [&](uint32_t a, uint32_t b) {
                if (centers[a].y != centers[b].y)
                  return centers[a].y < centers[b].y;
                if (centers[a].x != centers[b].x)
                  return centers[a].x < centers[b].x;
                return a < b;
              });
    for (size_t i = slab_start; i < slab_end; i += capacity) {
      const size_t end = std::min(slab_end, i + capacity);
      groups.emplace_back(order.begin() + i, order.begin() + end);
    }
  }
  return groups;
}

}  // namespace wsk

#endif  // WSK_INDEX_STR_PACK_H_
