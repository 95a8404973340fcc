// Tests for segment/: background model, SPCPE, connected components and
// the full VehicleSegmenter on synthetic frames.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <vector>

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

/// CleanMask written plainly: every pixel becomes 1 when at least 5 of
/// the in-bounds pixels of its 3x3 neighbourhood are set.
Mask NineNeighbourMajority(Mask mask, int w, int h, int iterations) {
  for (int it = 0; it < iterations; ++it) {
    Mask next(mask.size(), 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        int count = 0;
        for (int ny = std::max(0, y - 1); ny <= std::min(h - 1, y + 1); ++ny) {
          for (int nx = std::max(0, x - 1); nx <= std::min(w - 1, x + 1);
               ++nx) {
            count += mask[ny * w + nx];
          }
        }
        next[y * w + x] = count >= 5 ? 1 : 0;
      }
    }
    mask.swap(next);
  }
  return mask;
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
    ASSERT_EQ(CleanMask(mask, w, h, iterations),
              NineNeighbourMajority(mask, w, h, iterations))
        << w << "x" << h << " iterations " << iterations;
  }
  // Mostly empty rows, as in a segmented frame: most output rows have
  // three all-zero source rows, and the rest border one that is not.
  for (int trial = 0; trial < 300; ++trial) {
    const int w = static_cast<int>(rng.UniformInt(1, 90));
    const int h = static_cast<int>(rng.UniformInt(1, 40));
    const double row_density = rng.Uniform(0.02, 0.3);
    const double density = rng.Uniform(0.3, 1.0);
    const int iterations = static_cast<int>(rng.UniformInt(1, 3));
    Mask mask(static_cast<size_t>(w) * h, 0);
    for (int y = 0; y < h; ++y) {
      if (!rng.Bernoulli(row_density)) continue;
      for (int x = 0; x < w; ++x) {
        mask[y * w + x] = rng.Bernoulli(density) ? 1 : 0;
      }
    }
    ASSERT_EQ(CleanMask(mask, w, h, iterations),
              NineNeighbourMajority(mask, w, h, iterations))
        << "sparse rows " << w << "x" << h << " iterations " << iterations;
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

/// RunSpcpe's dense form: clear the partition, scan every pixel for
/// candidates, then the same sweeps and class decision.
SpcpeResult DenseSpcpe(const Frame& frame, const Mask* prior, double bg_hint,
                       const SpcpeOptions& options) {
  SpcpeResult result;
  result.partition.assign(frame.size(), 0);
  std::vector<size_t> candidates;
  for (size_t i = 0; i < frame.size(); ++i) {
    if (prior == nullptr || (*prior)[i] != 0) candidates.push_back(i);
  }
  if (candidates.empty()) {
    result.class_mean[0] = result.class_mean[1] = 0;
    result.two_classes = false;
    return result;
  }
  uint8_t lo = 255, hi = 0;
  for (size_t i : candidates) {
    lo = std::min(lo, frame.pixels()[i]);
    hi = std::max(hi, frame.pixels()[i]);
  }
  double mean0 = lo, mean1 = hi;
  if (hi - lo < options.min_class_separation) {
    for (size_t i : candidates) result.partition[i] = 1;
    result.class_mean[0] = result.class_mean[1] = (mean0 + mean1) / 2;
    result.two_classes = false;
    return result;
  }
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
  bool fg[2];
  if (bg_hint >= 0) {
    const double d0 = std::fabs(mean0 - bg_hint);
    const double d1 = std::fabs(mean1 - bg_hint);
    fg[0] = d0 >= options.min_class_separation;
    fg[1] = d1 >= options.min_class_separation;
    if (!fg[0] && !fg[1]) fg[d1 >= d0 ? 1 : 0] = true;
  } else {
    fg[0] = mean0 > mean1;
    fg[1] = !fg[0];
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    result.partition[candidates[c]] = fg[assign[c]] ? 1 : 0;
  }
  result.class_mean[0] = std::min(mean0, mean1);
  result.class_mean[1] = std::max(mean0, mean1);
  return result;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SpcpeTest, MatchesDenseReferenceOnRandomPriors) {
  Rng rng(21);
  int one_class = 0, empty = 0, whole_frame = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Every eighth trial is frame-sized: 320x240, 321x239 or 322x240.
    const bool full_size = trial % 8 == 0;
    const int w = full_size ? 320 + (trial / 8) % 3
                            : static_cast<int>(rng.UniformInt(1, 70));
    const int h = full_size ? 240 - (trial / 8) % 3 % 2
                            : static_cast<int>(rng.UniformInt(1, 50));
    Frame frame(w, h);
    // Two intensity populations, or (every fifth frame) one narrow one.
    const bool narrow = trial % 5 == 0;
    const int bg = static_cast<int>(rng.UniformInt(20, 120));
    const int fg = static_cast<int>(rng.UniformInt(100, 250));
    for (auto& p : frame.pixels()) {
      const int centre = narrow || rng.Bernoulli(0.6) ? bg : fg;
      const int spread = narrow ? 3 : 20;
      p = static_cast<uint8_t>(std::clamp<int64_t>(
          centre + rng.UniformInt(-spread, spread), 0, 255));
    }
    Mask prior(frame.size(), 0);
    const Mask* prior_ptr = &prior;
    switch (trial % 6) {
      case 0:  // empty
        break;
      case 1:  // all set
        std::fill(prior.begin(), prior.end(), 1);
        break;
      case 2:  // no prior: the whole frame
        prior_ptr = nullptr;
        break;
      default: {  // random density, nonzero values other than 1
        const double density = rng.Uniform(0.001, 0.6);
        for (auto& m : prior) {
          if (rng.Bernoulli(density)) {
            m = static_cast<uint8_t>(rng.Bernoulli(0.5) ? 1
                                                        : rng.UniformInt(2, 255));
          }
        }
        // A filled rectangle touching the frame's last byte.
        for (int y = h / 2; y < h; ++y) {
          for (int x = w / 2; x < w; ++x) prior[y * w + x] = 255;
        }
      }
    }
    const double bg_hint = rng.Bernoulli(0.25) ? -1.0 : bg;
    SpcpeOptions options;
    options.max_iterations = static_cast<int>(rng.UniformInt(1, 20));
    const SpcpeResult want = DenseSpcpe(frame, prior_ptr, bg_hint, options);
    const SpcpeResult got = RunSpcpe(frame, prior_ptr, bg_hint, options);
    ASSERT_EQ(got.partition, want.partition)
        << "trial " << trial << " " << w << "x" << h;
    EXPECT_TRUE(SameBits(got.class_mean[0], want.class_mean[0])) << trial;
    EXPECT_TRUE(SameBits(got.class_mean[1], want.class_mean[1])) << trial;
    EXPECT_EQ(got.iterations, want.iterations) << trial;
    EXPECT_EQ(got.two_classes, want.two_classes) << trial;
    const bool prior_set =
        std::any_of(prior.begin(), prior.end(), [](uint8_t m) { return m; });
    one_class += prior_set && !want.two_classes;
    empty += prior_ptr != nullptr && !prior_set;
    whole_frame += prior_ptr == nullptr;
  }
  // Every branch ran: no candidates, one class, two classes, no prior.
  EXPECT_GT(empty, 0);
  EXPECT_GT(one_class, 0);
  EXPECT_GT(whole_frame, 0);
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

/// ExtractBlobs written plainly: a deque flood fill from every unvisited
/// foreground pixel in raster order, with a separate visited array.
std::vector<Blob> ReferenceBlobs(const Mask& mask, const Frame& source,
                                 const BlobOptions& options) {
  const int w = source.width(), h = source.height();
  std::vector<Blob> blobs;
  std::vector<bool> visited(mask.size(), false);
  const int dx[] = {1, -1, 0, 0, 1, 1, -1, -1};
  const int dy[] = {0, 0, 1, -1, 1, -1, 1, -1};
  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      if (mask[sy * w + sx] == 0 || visited[sy * w + sx]) continue;
      std::deque<std::pair<int, int>> queue = {{sx, sy}};
      visited[sy * w + sx] = true;
      double sum_x = 0, sum_y = 0, sum_i = 0;
      int area = 0;
      int min_x = sx, max_x = sx, min_y = sy, max_y = sy;
      while (!queue.empty()) {
        const auto [x, y] = queue.front();
        queue.pop_front();
        ++area;
        sum_x += x;
        sum_y += y;
        sum_i += source.At(x, y);
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
        for (int d = 0; d < (options.eight_connected ? 8 : 4); ++d) {
          const int nx = x + dx[d], ny = y + dy[d];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          if (mask[ny * w + nx] == 0 || visited[ny * w + nx]) continue;
          visited[ny * w + nx] = true;
          queue.emplace_back(nx, ny);
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
  }
  return blobs;
}

TEST(BlobTest, MatchesReferenceFloodFillOnRandomMasks) {
  Rng rng(17);
  for (int trial = 0; trial < 48; ++trial) {
    const int w = trial % 2 == 0 ? 320 : 321;
    const int h = trial % 2 == 0 ? 240 : 239;
    Frame source(w, h);
    for (auto& p : source.pixels()) {
      p = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    // Log-uniform density from 0.1% to 60%; nonzero bytes other than 1.
    const double density =
        std::exp(rng.Uniform(std::log(0.001), std::log(0.6)));
    Mask mask(source.size(), 0);
    for (auto& m : mask) {
      if (rng.Bernoulli(density)) m = rng.Bernoulli(0.8) ? 1 : 255;
    }
    // Components on every border, including both last columns of a row.
    for (int x = 0; x < w; x += static_cast<int>(rng.UniformInt(1, 40))) {
      mask[x] = mask[(h - 1) * w + x] = 1;
    }
    for (int y = 0; y < h; y += static_cast<int>(rng.UniformInt(1, 30))) {
      mask[y * w] = mask[y * w + w - 1] = 1;
      mask[y * w + w - 2] = 1;
    }
    // One-pixel lines: horizontal, vertical and both diagonals, running
    // off the frame edge where they are long enough.
    const int line_dx[] = {1, 0, 1, -1}, line_dy[] = {0, 1, 1, 1};
    for (int l = 0; l < 6; ++l) {
      const int d = l % 4;
      int x = static_cast<int>(rng.UniformInt(0, w - 1));
      int y = static_cast<int>(rng.UniformInt(0, h - 1));
      for (int len = static_cast<int>(rng.UniformInt(2, 400)); len > 0; --len) {
        if (x < 0 || x >= w || y >= h) break;
        mask[y * w + x] = 1;
        x += line_dx[d];
        y += line_dy[d];
      }
    }
    for (bool eight : {true, false}) {
      BlobOptions options;
      options.eight_connected = eight;
      options.min_area = static_cast<int>(rng.UniformInt(1, 30));
      options.max_area = rng.Bernoulli(0.5)
                             ? 1 << 20
                             : static_cast<int>(rng.UniformInt(40, 4000));
      const std::vector<Blob> want = ReferenceBlobs(mask, source, options);
      const std::vector<Blob> got = ExtractBlobs(mask, source, options);
      ASSERT_EQ(got.size(), want.size())
          << "trial " << trial << " density " << density << " eight " << eight;
      for (size_t b = 0; b < want.size(); ++b) {
        EXPECT_EQ(got[b].area, want[b].area) << trial << " blob " << b;
        for (auto [g, v] :
             {std::pair{got[b].mbr.min_x, want[b].mbr.min_x},
              std::pair{got[b].mbr.min_y, want[b].mbr.min_y},
              std::pair{got[b].mbr.max_x, want[b].mbr.max_x},
              std::pair{got[b].mbr.max_y, want[b].mbr.max_y},
              std::pair{got[b].centroid.x, want[b].centroid.x},
              std::pair{got[b].centroid.y, want[b].centroid.y},
              std::pair{got[b].mean_intensity, want[b].mean_intensity}}) {
          EXPECT_TRUE(SameBits(g, v)) << trial << " blob " << b << ": " << g
                                      << " vs " << v;
        }
      }
    }
  }
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
