#include "trafficsim/renderer.h"

#include <algorithm>
#include <cmath>

#include "linalg/noise_kernel.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "video/draw.h"

namespace mivid {

namespace {

/// Box-Muller pairs drawn per block: 16 KB of uniforms.
constexpr size_t kNoiseBlockPairs = 1024;

/// px[i] = NoisyPixel(px[i], offset, sigma, rng->Gaussian()) for every
/// pixel in order. Fresh pairs are drawn a block at a time and transformed
/// by the active SIMD tier; a cached second value opens the frame and an
/// odd last pixel leaves one cached, exactly as per-pixel Gaussian() calls
/// would. Returns the pairs the tier recomputed exactly.
size_t AddSensorNoise(double offset, double sigma, Rng* rng, uint8_t* px,
                      size_t count) {
  using noise_kernel::NoisyPixel;
  size_t i = 0;
  if (count > 0 && rng->HasCachedGaussian()) {
    px[0] = NoisyPixel(px[0], offset, sigma, rng->Gaussian());
    i = 1;
  }
  const SimdOpsTable& ops = SimdOps();
  double u1[kNoiseBlockPairs];
  double u2[kNoiseBlockPairs];
  size_t recomputed = 0;
  while (count - i >= 2) {
    const size_t pairs = std::min((count - i) / 2, kNoiseBlockPairs);
    for (size_t j = 0; j < pairs; ++j) rng->GaussianUniforms(&u1[j], &u2[j]);
    recomputed += ops.noisy_pairs_u8(u1, u2, pairs, offset, sigma, px + i);
    i += 2 * pairs;
  }
  if (i < count) px[i] = NoisyPixel(px[i], offset, sigma, rng->Gaussian());
  return recomputed;
}

}  // namespace

Renderer::Renderer(const RoadLayout& layout, RenderOptions options)
    : layout_(layout), options_(options), noise_rng_(options.noise_seed) {
  background_ = Frame(layout.width, layout.height, layout.background_shade);
  for (const auto& surface : layout.road_surface) {
    FillRect(&background_, surface, layout.road_shade);
  }
  for (const auto& wall : layout.walls) {
    FillRect(&background_, wall, 150);  // bright tunnel wall cladding
  }
}

Frame Renderer::Render(const std::vector<VehicleState>& vehicles) {
  MIVID_TRACE_SPAN("trafficsim/render");
  Frame frame = background_;
  for (const auto& v : vehicles) {
    if (!v.active()) continue;
    const VehicleDims dims = DimsFor(v.type);
    FillRotatedRect(&frame, v.position, dims.length / 2, dims.width / 2,
                    v.heading, v.shade);
  }

  double illumination = 0.0;
  if (options_.illumination_amplitude > 0 &&
      options_.illumination_period > 0) {
    illumination = options_.illumination_amplitude *
                   std::sin(2.0 * M_PI * frame_index_ /
                            options_.illumination_period);
  }
  ++frame_index_;

  if (options_.draw_noise && options_.noise_stddev > 0) {
    const size_t recomputed =
        AddSensorNoise(illumination, options_.noise_stddev, &noise_rng_,
                       frame.pixels().data(), frame.size());
    MIVID_METRIC_COUNT("trafficsim/noise_exact_pairs", recomputed);
  } else if (illumination != 0.0) {
    for (auto& p : frame.pixels()) {
      p = static_cast<uint8_t>(
          std::clamp(static_cast<double>(p) + illumination, 0.0, 255.0));
    }
  }
  return frame;
}

}  // namespace mivid
