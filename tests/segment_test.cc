// Tests for segment/: background model, SPCPE, connected components and
// the full VehicleSegmenter on synthetic frames.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "segment/segmenter.h"
#include "video/draw.h"

namespace mivid {
namespace {

Frame MakeBackground(uint8_t shade = 60) { return Frame(64, 48, shade); }

TEST(BackgroundModelTest, WarmupThenReady) {
  BackgroundOptions options;
  options.warmup_frames = 5;
  BackgroundModel model(options);
  for (int i = 0; i < 4; ++i) {
    model.Update(MakeBackground());
    EXPECT_FALSE(model.Ready());
  }
  model.Update(MakeBackground());
  EXPECT_TRUE(model.Ready());
  EXPECT_EQ(model.frames_seen(), 5);
}

TEST(BackgroundModelTest, LearnsStaticScene) {
  BackgroundModel model;
  for (int i = 0; i < 15; ++i) model.Update(MakeBackground(60));
  const Frame bg = model.BackgroundFrame();
  EXPECT_EQ(bg.At(10, 10), 60);
  const Mask mask = model.Subtract(MakeBackground(60));
  for (uint8_t m : mask) EXPECT_EQ(m, 0);
}

TEST(BackgroundModelTest, DetectsForeignObject) {
  BackgroundModel model;
  for (int i = 0; i < 12; ++i) model.Update(MakeBackground(60));
  Frame frame = MakeBackground(60);
  FillRect(&frame, BBox(10, 10, 20, 18), 200);
  const Mask mask = model.Subtract(frame);
  EXPECT_EQ(mask[15 * 64 + 15], 1);
  EXPECT_EQ(mask[5 * 64 + 5], 0);
}

TEST(BackgroundModelTest, SelectiveUpdateKeepsStoppedObjectForeground) {
  BackgroundOptions options;
  options.learning_rate = 0.2;  // aggressive, to prove selectivity matters
  BackgroundModel model(options);
  for (int i = 0; i < 12; ++i) model.Update(MakeBackground(60));
  Frame with_car = MakeBackground(60);
  FillRect(&with_car, BBox(10, 10, 20, 18), 200);
  // A stopped car sits there for many frames.
  for (int i = 0; i < 50; ++i) model.Update(with_car);
  const Mask mask = model.Subtract(with_car);
  EXPECT_EQ(mask[14 * 64 + 14], 1) << "stopped car absorbed into background";
}

TEST(CleanMaskTest, RemovesIsolatedPixelsKeepsBlocks) {
  const int w = 16, h = 16;
  Mask mask(static_cast<size_t>(w) * h, 0);
  mask[3 * 16 + 3] = 1;  // lone speck
  for (int y = 8; y < 12; ++y) {
    for (int x = 8; x < 12; ++x) mask[y * 16 + x] = 1;  // 4x4 block
  }
  const Mask cleaned = CleanMask(mask, w, h, 1);
  EXPECT_EQ(cleaned[3 * 16 + 3], 0);
  EXPECT_EQ(cleaned[10 * 16 + 10], 1);
}

TEST(CleanMaskTest, MatchesNineNeighbourMajorityOnRandomMasks) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const int w = static_cast<int>(rng.UniformInt(1, 40));
    const int h = static_cast<int>(rng.UniformInt(1, 30));
    const double density = rng.Uniform(0.1, 0.9);
    const int iterations = static_cast<int>(rng.UniformInt(1, 3));
    Mask mask(static_cast<size_t>(w) * h);
    for (auto& m : mask) m = rng.Bernoulli(density) ? 1 : 0;
    // Reference: count the in-bounds 3x3 neighbourhood of every pixel.
    Mask want = mask;
    for (int it = 0; it < iterations; ++it) {
      Mask next(want.size(), 0);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          int count = 0;
          for (int ny = std::max(0, y - 1); ny <= std::min(h - 1, y + 1); ++ny) {
            for (int nx = std::max(0, x - 1); nx <= std::min(w - 1, x + 1);
                 ++nx) {
              count += want[ny * w + nx];
            }
          }
          next[y * w + x] = count >= 5 ? 1 : 0;
        }
      }
      want.swap(next);
    }
    ASSERT_EQ(CleanMask(mask, w, h, iterations), want)
        << w << "x" << h << " iterations " << iterations;
  }
}

TEST(BackgroundModelTest, UpdateAndSubtractMatchesSeparateCalls) {
  // Noisy frames with a moving block, through warmup (the frame that
  // completes it included) and the selective update, for both methods.
  for (BackgroundMethod method :
       {BackgroundMethod::kSelectiveMean, BackgroundMethod::kTemporalMedian}) {
    BackgroundOptions options;
    options.method = method;
    options.warmup_frames = 6;
    BackgroundModel fused(options), separate(options);
    Rng rng(12);
    for (int f = 0; f < 40; ++f) {
      Frame frame(33, 21);
      for (auto& p : frame.pixels()) {
        p = static_cast<uint8_t>(rng.UniformInt(50, 70));
      }
      if (f > 8) FillRect(&frame, BBox(f % 25, 4, f % 25 + 6, 12), 220);
      Mask mask;
      double bg_mean = -1.0;
      const bool ready = fused.UpdateAndSubtract(frame, &mask, &bg_mean);
      separate.Update(frame);
      ASSERT_EQ(ready, separate.Ready()) << "frame " << f;
      if (!ready) {
        EXPECT_TRUE(mask.empty());
        continue;
      }
      EXPECT_EQ(mask, separate.Subtract(frame)) << "frame " << f;
      EXPECT_EQ(bg_mean, separate.BackgroundFrame().MeanIntensity())
          << "frame " << f;
      EXPECT_EQ(fused.BackgroundFrame().pixels(),
                separate.BackgroundFrame().pixels());
    }
  }
}

TEST(SpcpeTest, SeparatesTwoIntensityClasses) {
  Frame frame(32, 32, 50);
  FillRect(&frame, BBox(8, 8, 15, 15), 210);
  SpcpeResult result = RunSpcpe(frame, nullptr, 50.0);
  EXPECT_TRUE(result.two_classes);
  EXPECT_NEAR(result.class_mean[0], 50.0, 2.0);
  EXPECT_NEAR(result.class_mean[1], 210.0, 2.0);
  EXPECT_EQ(result.partition[10 * 32 + 10], 1);
  EXPECT_EQ(result.partition[0], 0);
}

TEST(SpcpeTest, ConvergesWithinIterationBudget) {
  Rng rng(3);
  Frame frame(32, 32);
  for (auto& p : frame.pixels()) {
    p = static_cast<uint8_t>(rng.Bernoulli(0.5) ? rng.UniformInt(40, 60)
                                                : rng.UniformInt(180, 220));
  }
  SpcpeResult result = RunSpcpe(frame, nullptr, 50.0);
  EXPECT_TRUE(result.two_classes);
  EXPECT_LE(result.iterations, 20);
  EXPECT_GT(result.iterations, 0);
}

TEST(SpcpeTest, HomogeneousRegionIsSingleClass) {
  Frame frame(16, 16, 128);
  Mask prior(frame.size(), 1);
  SpcpeResult result = RunSpcpe(frame, &prior, 40.0);
  EXPECT_FALSE(result.two_classes);
  // Everything in the prior stays foreground.
  EXPECT_EQ(result.partition[0], 1);
}

TEST(SpcpeTest, PriorRestrictsCandidates) {
  Frame frame(16, 16, 50);
  FillRect(&frame, BBox(4, 4, 7, 7), 200);
  Mask prior(frame.size(), 0);
  for (int y = 4; y <= 7; ++y) {
    for (int x = 4; x <= 7; ++x) prior[y * 16 + x] = 1;
  }
  SpcpeResult result = RunSpcpe(frame, &prior, 50.0);
  // Pixels outside the prior are never foreground.
  EXPECT_EQ(result.partition[0], 0);
  EXPECT_EQ(result.partition[5 * 16 + 5], 1);
}

TEST(SpcpeTest, KeepsBothVehicleShadesWithHint) {
  // Two vehicles of different shades, both far from the background hint.
  Frame frame(48, 16, 50);
  FillRect(&frame, BBox(4, 4, 12, 10), 180);
  FillRect(&frame, BBox(30, 4, 38, 10), 240);
  Mask prior(frame.size(), 0);
  for (int y = 4; y <= 10; ++y) {
    for (int x = 4; x <= 12; ++x) prior[y * 48 + x] = 1;
    for (int x = 30; x <= 38; ++x) prior[y * 48 + x] = 1;
  }
  SpcpeResult result = RunSpcpe(frame, &prior, 50.0);
  EXPECT_EQ(result.partition[6 * 48 + 6], 1) << "darker vehicle dropped";
  EXPECT_EQ(result.partition[6 * 48 + 33], 1) << "brighter vehicle dropped";
}

TEST(SpcpeTest, EmptyPriorYieldsEmptyResult) {
  Frame frame(8, 8, 100);
  Mask prior(frame.size(), 0);
  SpcpeResult result = RunSpcpe(frame, &prior, 50.0);
  EXPECT_FALSE(result.two_classes);
  for (uint8_t p : result.partition) EXPECT_EQ(p, 0);
}

TEST(BlobTest, ExtractsComponentsWithMbrAndCentroid) {
  Frame frame(32, 32, 0);
  Mask mask(frame.size(), 0);
  for (int y = 4; y < 10; ++y) {
    for (int x = 4; x < 12; ++x) {
      mask[y * 32 + x] = 1;
      frame.At(x, y) = 200;
    }
  }
  BlobOptions options;
  options.min_area = 10;
  const std::vector<Blob> blobs = ExtractBlobs(mask, frame, options);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].area, 48);
  EXPECT_NEAR(blobs[0].centroid.x, 7.5, 1e-9);
  EXPECT_NEAR(blobs[0].centroid.y, 6.5, 1e-9);
  EXPECT_DOUBLE_EQ(blobs[0].mbr.min_x, 4);
  EXPECT_DOUBLE_EQ(blobs[0].mbr.max_x, 11);
  EXPECT_NEAR(blobs[0].mean_intensity, 200.0, 1e-9);
}

TEST(BlobTest, MinAreaFiltersSpecks) {
  Frame frame(16, 16, 0);
  Mask mask(frame.size(), 0);
  mask[5 * 16 + 5] = 1;
  BlobOptions options;
  options.min_area = 2;
  EXPECT_TRUE(ExtractBlobs(mask, frame, options).empty());
}

TEST(BlobTest, SeparatesDisjointComponents) {
  Frame frame(32, 16, 0);
  Mask mask(frame.size(), 0);
  for (int y = 2; y < 8; ++y) {
    for (int x = 2; x < 8; ++x) mask[y * 32 + x] = 1;
    for (int x = 20; x < 26; ++x) mask[y * 32 + x] = 1;
  }
  BlobOptions options;
  options.min_area = 10;
  const std::vector<Blob> blobs = ExtractBlobs(mask, frame, options);
  EXPECT_EQ(blobs.size(), 2u);
}

TEST(BlobTest, EightVsFourConnectivity) {
  Frame frame(8, 8, 0);
  Mask mask(frame.size(), 0);
  // Two 2x2 blocks touching only diagonally.
  mask[1 * 8 + 1] = mask[1 * 8 + 2] = mask[2 * 8 + 1] = mask[2 * 8 + 2] = 1;
  mask[3 * 8 + 3] = mask[3 * 8 + 4] = mask[4 * 8 + 3] = mask[4 * 8 + 4] = 1;
  BlobOptions options;
  options.min_area = 1;
  options.eight_connected = true;
  EXPECT_EQ(ExtractBlobs(mask, frame, options).size(), 1u);
  options.eight_connected = false;
  EXPECT_EQ(ExtractBlobs(mask, frame, options).size(), 2u);
}

TEST(SegmenterTest, EndToEndDetectsMovingVehicle) {
  SegmenterOptions options;
  options.background.warmup_frames = 8;
  options.blob.min_area = 20;
  VehicleSegmenter segmenter(options);

  Rng rng(4);
  // Static background + moving bright rectangle, mild noise.
  for (int frame_idx = 0; frame_idx < 40; ++frame_idx) {
    Frame frame(96, 64, 60);
    if (frame_idx >= 10) {
      const double x = 10 + (frame_idx - 10) * 2.0;
      FillRect(&frame, BBox(x, 28, x + 14, 36), 210);
    }
    for (auto& p : frame.pixels()) {
      p = static_cast<uint8_t>(std::clamp(
          static_cast<double>(p) + rng.Gaussian(0, 2.0), 0.0, 255.0));
    }
    const std::vector<Blob> blobs = segmenter.Process(frame);
    if (frame_idx >= 12) {
      ASSERT_EQ(blobs.size(), 1u) << "frame " << frame_idx;
      const double expected_cx = 10 + (frame_idx - 10) * 2.0 + 7.0;
      EXPECT_NEAR(blobs[0].centroid.x, expected_cx, 2.5);
      EXPECT_NEAR(blobs[0].centroid.y, 32.0, 2.5);
    }
  }
}

TEST(SegmenterTest, NoDetectionsDuringWarmup) {
  VehicleSegmenter segmenter;
  Frame frame(32, 32, 80);
  FillRect(&frame, BBox(5, 5, 15, 15), 220);
  EXPECT_TRUE(segmenter.Process(frame).empty());
  EXPECT_FALSE(segmenter.Ready());
}

}  // namespace
}  // namespace mivid
