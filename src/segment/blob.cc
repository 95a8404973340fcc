#include "segment/blob.h"

#include <algorithm>
#include <utility>

namespace mivid {

std::vector<Blob> ExtractBlobs(Mask mask, const Frame& source,
                               const BlobOptions& options) {
  const int w = source.width(), h = source.height();
  const size_t n = static_cast<size_t>(w) * static_cast<size_t>(h);
  // Read through a raw pointer: the byte stores to the mask below may
  // alias `source`, so `source.At` would reload its fields per pixel.
  const uint8_t* px = source.pixels().data();
  std::vector<Blob> blobs;

  // The mask (the caller's copy) marks the foreground not yet claimed by
  // a component: a pixel is cleared when a component takes it. Seeds are
  // the nonzero bytes left, found in raster order by NextSet, so
  // components come out in the raster order of their first pixel.
  uint8_t* unclaimed = mask.data();

  // 4- or 8-connected flood fill from every unclaimed foreground pixel.
  // The area, coordinate and intensity sums add integers, which doubles
  // hold exactly, so the visiting order does not change any field.
  static const int dx8[] = {1, -1, 0, 0, 1, 1, -1, -1};
  static const int dy8[] = {0, 0, 1, -1, 1, -1, 1, -1};
  const int num_dirs = options.eight_connected ? 8 : 4;

  std::vector<std::pair<int, int>> stack;
  for (size_t si = NextSet(unclaimed, 0, n); si < n;
       si = NextSet(unclaimed, si + 1, n)) {
    // Grow one component.
    const int sx = static_cast<int>(si % static_cast<size_t>(w));
    const int sy = static_cast<int>(si / static_cast<size_t>(w));
    stack.clear();
    stack.emplace_back(sx, sy);
    unclaimed[si] = 0;
    double sum_x = 0, sum_y = 0, sum_i = 0;
    int area = 0;
    int min_x = sx, max_x = sx, min_y = sy, max_y = sy;
    while (!stack.empty()) {
      const auto [x, y] = stack.back();
      stack.pop_back();
      ++area;
      sum_x += x;
      sum_y += y;
      sum_i += px[static_cast<size_t>(y) * w + x];
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
      for (int d = 0; d < num_dirs; ++d) {
        const int nx = x + dx8[d], ny = y + dy8[d];
        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
        uint8_t& neighbour = unclaimed[static_cast<size_t>(ny) * w + nx];
        if (neighbour == 0) continue;
        neighbour = 0;
        stack.emplace_back(nx, ny);
      }
    }

    if (area < options.min_area || area > options.max_area) continue;
    Blob blob;
    blob.area = area;
    blob.centroid = {sum_x / area, sum_y / area};
    blob.mbr = BBox(min_x, min_y, max_x, max_y);
    blob.mean_intensity = sum_i / area;
    blobs.push_back(blob);
  }
  return blobs;
}

}  // namespace mivid
