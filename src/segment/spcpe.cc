#include "segment/spcpe.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

SpcpeResult RunSpcpe(const Frame& frame, const Mask* prior, double bg_hint,
                     const SpcpeOptions& options) {
  MIVID_TRACE_SPAN("segment/spcpe");
  MIVID_SCOPED_TIMER("segment/spcpe_seconds");
  SpcpeResult result;
  const size_t n = frame.size();

  // Collect the candidate pixel set, in raster order. With a prior the
  // partition starts as a copy of it: that is already zero wherever no
  // candidate is, and every candidate byte is overwritten below. The
  // candidates are its nonzero bytes.
  std::vector<size_t> candidates;
  if (prior == nullptr) {
    result.partition.assign(n, 0);
    candidates.resize(n);
    for (size_t i = 0; i < n; ++i) candidates[i] = i;
  } else {
    result.partition.assign(prior->begin(), prior->begin() + n);
    const uint8_t* m = prior->data();
    for (size_t i = NextSet(m, 0, n); i < n; i = NextSet(m, i + 1, n)) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    result.class_mean[0] = result.class_mean[1] = 0;
    result.two_classes = false;
    return result;
  }

  // Initialize the two class means from the candidate intensity range.
  uint8_t lo = 255, hi = 0;
  for (size_t i : candidates) {
    lo = std::min(lo, frame.pixels()[i]);
    hi = std::max(hi, frame.pixels()[i]);
  }
  double mean0 = lo, mean1 = hi;
  if (hi - lo < options.min_class_separation) {
    // One homogeneous class: everything is "foreground" relative to the
    // prior (the prior already isolated it from the background).
    for (size_t i : candidates) result.partition[i] = 1;
    result.class_mean[0] = result.class_mean[1] = (mean0 + mean1) / 2;
    result.two_classes = false;
    return result;
  }

  // Alternate partition assignment and parameter estimation. The class
  // sums add integer-valued intensities, which doubles represent exactly.
  std::vector<uint8_t> assign(candidates.size(), 0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    double sum0 = 0.0, sum1 = 0.0;
    size_t n0 = 0, n1 = 0;
    bool changed = false;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const double v = frame.pixels()[candidates[c]];
      const uint8_t cls = std::fabs(v - mean1) < std::fabs(v - mean0) ? 1 : 0;
      if (cls != assign[c]) changed = true;
      assign[c] = cls;
      if (cls) {
        sum1 += v;
        ++n1;
      } else {
        sum0 += v;
        ++n0;
      }
    }
    if (n0 > 0) mean0 = sum0 / static_cast<double>(n0);
    if (n1 > 0) mean1 = sum1 / static_cast<double>(n1);
    if (!changed) break;
  }

  // Decide which classes are "vehicle". With a background hint, every
  // class whose mean deviates clearly from the hint is foreground (two
  // vehicles of different shades form two classes, both of which must
  // survive); if neither deviates, keep the farther one. Without a hint,
  // the brighter class wins (vehicle bodies render brighter than asphalt).
  bool fg[2];
  if (bg_hint >= 0) {
    const double d0 = std::fabs(mean0 - bg_hint);
    const double d1 = std::fabs(mean1 - bg_hint);
    fg[0] = d0 >= options.min_class_separation;
    fg[1] = d1 >= options.min_class_separation;
    if (!fg[0] && !fg[1]) {
      fg[d1 >= d0 ? 1 : 0] = true;
    }
  } else {
    fg[0] = mean0 > mean1;
    fg[1] = !fg[0];
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    result.partition[candidates[c]] = fg[assign[c]] ? 1 : 0;
  }
  result.class_mean[0] = std::min(mean0, mean1);
  result.class_mean[1] = std::max(mean0, mean1);
  MIVID_METRIC_OBSERVE("segment/spcpe_iterations", result.iterations);
  return result;
}

}  // namespace mivid
