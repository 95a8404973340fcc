// Golden pins for the vision front end (paper Sec. 3.1): FNV-1a hashes of
// every rendered frame, every background-subtraction mask, every
// background mean and every refined blob list, over fixed tunnel and
// intersection runs.
//
// The pins come from the inverse-CDF sensor noise (trafficsim/renderer.cc:
// one 32-bit uniform per pixel picks floor(offset + sigma * g) from a
// per-frame table) and the one-pass background model, separable
// CleanMask and SPCPE refine. The renderer has a single code path, so
// the pins are the same on every SIMD tier; the segmentation stages
// dispatch per tier and must reproduce them byte for byte.
// EXPERIMENTS.md rests on these bytes.

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fnv1a.h"
#include "linalg/simd.h"
#include "segment/segmenter.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"

namespace mivid {

/// Names the tier parameter in test output.
void PrintTo(SimdTier tier, std::ostream* os) { *os << SimdTierName(tier); }

namespace {

using test::Fnv1a;

struct FrontEndHashes {
  uint64_t frames = 0;
  uint64_t masks = 0;
  uint64_t bg_means = 0;
  uint64_t blobs = 0;
  int blob_count = 0;  ///< not pinned; guards against an empty run
};

/// Steps `spec` for `num_frames` frames through render → Ingest → Refine
/// and hashes each stage's output.
FrontEndHashes RunFrontEnd(const ScenarioSpec& spec, const RenderOptions& ro,
                           int num_frames) {
  TrafficWorld world(spec);
  Renderer renderer(world.spec().layout, ro);
  VehicleSegmenter segmenter;
  Fnv1a frames, masks, bg_means, blobs;
  int blob_count = 0;
  for (int f = 0; f < num_frames && !world.Done(); ++f) {
    world.Step();
    Frame frame = renderer.Render(world.vehicles());
    frames.Bytes(frame.pixels().data(), frame.size());
    const PendingSegmentation pending = segmenter.Ingest(std::move(frame));
    masks.Int(pending.ready ? 1 : 0);
    masks.Bytes(pending.mask.data(), pending.mask.size());
    bg_means.Double(pending.bg_mean);
    const std::vector<Blob> found =
        VehicleSegmenter::Refine(pending, segmenter.options());
    blobs.Int(static_cast<int64_t>(found.size()));
    blob_count += static_cast<int>(found.size());
    for (const Blob& b : found) {
      blobs.Double(b.mbr.min_x);
      blobs.Double(b.mbr.min_y);
      blobs.Double(b.mbr.max_x);
      blobs.Double(b.mbr.max_y);
      blobs.Double(b.centroid.x);
      blobs.Double(b.centroid.y);
      blobs.Int(b.area);
      blobs.Double(b.mean_intensity);
    }
  }
  return {frames.value(), masks.value(), bg_means.value(), blobs.value(),
          blob_count};
}

void ExpectHashes(const FrontEndHashes& got, const FrontEndHashes& want) {
  EXPECT_EQ(got.frames, want.frames) << std::hex << "frames 0x" << got.frames;
  EXPECT_EQ(got.masks, want.masks) << std::hex << "masks 0x" << got.masks;
  EXPECT_EQ(got.bg_means, want.bg_means)
      << std::hex << "bg_means 0x" << got.bg_means;
  EXPECT_EQ(got.blobs, want.blobs) << std::hex << "blobs 0x" << got.blobs;
  EXPECT_GT(got.blob_count, 0);
}

/// Pins the SIMD tier for one test and restores native dispatch after.
class VisionGoldenTest : public ::testing::TestWithParam<SimdTier> {
 protected:
  void SetUp() override {
    if (GetParam() == SimdTier::kAvx2 && !Avx2Available()) {
      GTEST_SKIP() << "AVX2 tier unavailable on this build or CPU";
    }
    SetSimdTier(static_cast<int>(GetParam()));
  }
  void TearDown() override { SetSimdTier(-1); }
};

TEST_P(VisionGoldenTest, Tunnel300Frames) {
  ExpectHashes(RunFrontEnd(MakeTunnelScenario(), RenderOptions{}, 300),
               {0x7d6437d0f301fbf0ULL, 0x4922c417694e91baULL,
                0x9e57f927e7b45d1fULL, 0xeb8efc4a5e289784ULL});
}

TEST_P(VisionGoldenTest, Intersection300Frames) {
  ExpectHashes(RunFrontEnd(MakeIntersectionScenario(), RenderOptions{}, 300),
               {0x531ef33b74674801ULL, 0x818c328c9fecb11eULL,
                0x30f426a4c3012088ULL, 0x6d5bd4b20a9da11aULL});
}

TEST_P(VisionGoldenTest, TunnelWithIlluminationDrift) {
  RenderOptions ro;
  ro.illumination_amplitude = 12.0;
  ro.illumination_period = 90;
  ExpectHashes(RunFrontEnd(MakeTunnelScenario(), ro, 120),
               {0x72e83ac38865ca8dULL, 0x781947480f59e369ULL,
                0xf0a22b72f626f930ULL, 0xd464e78d574caf1dULL});
}

TEST_P(VisionGoldenTest, OddPixelCountCarriesGaussianAcrossFrames) {
  // 321 x 239 pixels: every frame ends on half of an Rng::Next() draw,
  // and the next frame must start on a fresh one.
  ScenarioSpec spec = MakeIntersectionScenario();
  spec.layout.width = 321;
  spec.layout.height = 239;
  ExpectHashes(RunFrontEnd(spec, RenderOptions{}, 60),
               {0xbf3783a16046486dULL, 0xfc3b79a8abd655e1ULL,
                0xcc53629a500738b4ULL, 0xe770d9c4b5e44904ULL});
}

INSTANTIATE_TEST_SUITE_P(Tiers, VisionGoldenTest,
                         ::testing::Values(SimdTier::kScalar, SimdTier::kAvx2),
                         [](const ::testing::TestParamInfo<SimdTier>& info) {
                           return std::string(SimdTierName(info.param));
                         });

}  // namespace
}  // namespace mivid
