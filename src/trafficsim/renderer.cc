#include "trafficsim/renderer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/trace.h"
#include "video/draw.h"

namespace mivid {

namespace {

/// Adds sensor noise in place: px[i] becomes uint8(clamp(px[i] + offset +
/// sigma * g, 0, 255)) with g standard normal, drawn fresh per pixel.
///
/// The byte is sampled directly rather than through g. For an integer
/// pixel p that byte is clamp(p + K, 0, 255) with K = floor(offset +
/// sigma * g), whose law P(K <= k) = Phi((k + 1 - offset) / sigma) is fixed
/// for the frame. So each frame builds an inverse-CDF table over k in
/// [floor(offset - 9 sigma), floor(offset + 9 sigma)], cut to [-255, 255]
/// where every K beyond gives the same byte; the end classes absorb the
/// tails. A pixel then costs one 32-bit uniform (half of an Rng::Next()),
/// a guide load that, outside the few buckets a threshold splits, is K
/// itself, and a clamp-table load. No transcendental runs per pixel.
void AddSensorNoise(double offset, double sigma, Rng* rng, uint8_t* px,
                    size_t count) {
  const int kmin = static_cast<int>(
      std::clamp(std::floor(offset - 9.0 * sigma), -255.0, 255.0));
  const int kmax = static_cast<int>(
      std::clamp(std::floor(offset + 9.0 * sigma), -255.0, 255.0));
  // threshold[c] = round(2^32 * P(K <= kmin + c)); K = kmin + c for the
  // first c with u < threshold[c]. The last class takes all of the rest.
  uint64_t threshold[2 * 255 + 1];
  const int last = kmax - kmin;
  for (int c = 0; c < last; ++c) {
    const double z = (kmin + c + 1 - offset) / sigma;
    threshold[c] = static_cast<uint64_t>(
        std::llround(0x1p32 * 0.5 * std::erfc(-z * M_SQRT1_2)));
  }
  threshold[last] = uint64_t{1} << 32;
  // guide[b] covers the uniforms whose top 12 bits are b. When no
  // threshold falls inside that range they all land in one class and the
  // entry is its K, offset by 255 to index `saturate`; otherwise the entry
  // is kSplit plus the first class one of them can land in, and a forward
  // search finishes the pixel.
  constexpr int kGuideShift = 20;
  constexpr int kSplit = 1024;  // above every K + 255 in [0, 510]
  uint16_t guide[1 << (32 - kGuideShift)];
  for (int b = 0, c = 0; b < (1 << (32 - kGuideShift)); ++b) {
    const uint64_t first = static_cast<uint64_t>(b) << kGuideShift;
    while (threshold[c] <= first) ++c;
    const bool split = threshold[c] < first + (uint64_t{1} << kGuideShift);
    guide[b] = static_cast<uint16_t>(split ? kSplit + c : kmin + c + 255);
  }
  // saturate[p + K + 255] = clamp(p + K, 0, 255).
  uint8_t saturate[255 + 255 + 255 + 1];
  for (int v = 0; v <= 3 * 255; ++v) {
    saturate[v] = static_cast<uint8_t>(std::clamp(v - 255, 0, 255));
  }
  const auto noisy = [&](uint8_t p, uint32_t u) {
    int k = guide[u >> kGuideShift];
    if (k >= kSplit) {
      int c = k - kSplit;
      while (threshold[c] <= u) ++c;
      k = kmin + c + 255;
    }
    return saturate[p + k];
  };
  // The stream runs on a local copy: byte stores through `px` may alias
  // *rng, which would force its state through memory on every draw.
  Rng local = *rng;
  size_t i = 0;
  for (; i + 1 < count; i += 2) {
    const uint64_t r = local.Next();
    px[i] = noisy(px[i], static_cast<uint32_t>(r >> 32));
    px[i + 1] = noisy(px[i + 1], static_cast<uint32_t>(r));
  }
  if (i < count) {
    px[i] = noisy(px[i], static_cast<uint32_t>(local.Next() >> 32));
  }
  *rng = local;
}

}  // namespace

Renderer::Renderer(const RoadLayout& layout, RenderOptions options)
    : layout_(layout), options_(options), noise_rng_(kNoiseSeed) {
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

  if (options_.noise_stddev > 0) {
    AddSensorNoise(illumination, options_.noise_stddev, &noise_rng_,
                   frame.pixels().data(), frame.size());
  } else if (illumination != 0.0) {
    for (auto& p : frame.pixels()) {
      p = static_cast<uint8_t>(
          std::clamp(static_cast<double>(p) + illumination, 0.0, 255.0));
    }
  }
  return frame;
}

}  // namespace mivid
