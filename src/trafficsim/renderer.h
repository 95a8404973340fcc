// Rasterizes world state into greyscale frames.
//
// The rendered frames feed the segmentation stack end-to-end, so they
// include the static scene (road, walls), per-vehicle bodies at distinct
// shades, and additive sensor noise.

#ifndef MIVID_TRAFFICSIM_RENDERER_H_
#define MIVID_TRAFFICSIM_RENDERER_H_

#include <vector>

#include "common/rng.h"
#include "trafficsim/road.h"
#include "trafficsim/vehicle.h"
#include "video/frame.h"

namespace mivid {

/// Rendering knobs.
struct RenderOptions {
  double noise_stddev = 6.0;  ///< additive Gaussian pixel noise; 0 = off
  /// Slow sinusoidal global illumination drift (clouds, tunnel lighting):
  /// every pixel is offset by amplitude * sin(2 pi frame / period).
  double illumination_amplitude = 0.0;  ///< intensity units; 0 = off
  int illumination_period = 600;        ///< frames per cycle
};

/// Stateless-per-frame renderer for a fixed layout.
class Renderer {
 public:
  /// Seed of the sensor-noise stream: equal inputs render equal frames.
  static constexpr uint64_t kNoiseSeed = 7;

  Renderer(const RoadLayout& layout, RenderOptions options = {});

  /// The static scene with no vehicles and no noise (ideal background).
  const Frame& background() const { return background_; }

  /// Renders vehicles over the background, then applies illumination
  /// drift and noise. The frame counter advances per call.
  Frame Render(const std::vector<VehicleState>& vehicles);

 private:
  const RoadLayout& layout_;
  RenderOptions options_;
  Frame background_;
  Rng noise_rng_;
  int frame_index_ = 0;
};

}  // namespace mivid

#endif  // MIVID_TRAFFICSIM_RENDERER_H_
