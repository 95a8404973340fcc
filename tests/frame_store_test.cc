// Tests for db/frame_store: RLE codec and clip video persistence.

#include <filesystem>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/frame_store.h"
#include "db/video_db.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

TEST(RleTest, EncodesRunsCompactly) {
  std::vector<uint8_t> bytes(1000, 42);
  const std::string encoded = RleEncode(bytes);
  // 1000 = 3 * 255 + 235 -> 4 pairs.
  EXPECT_EQ(encoded.size(), 8u);
  Result<std::vector<uint8_t>> back = RleDecode(encoded, 1000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), bytes);
}

TEST(RleTest, RoundtripsRandomData) {
  Rng rng(3);
  std::vector<uint8_t> bytes(4096);
  for (auto& b : bytes) {
    // Mixture of runs and noise.
    b = rng.Bernoulli(0.7) ? 100 : static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  Result<std::vector<uint8_t>> back = RleDecode(RleEncode(bytes), bytes.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), bytes);
}

TEST(RleTest, EmptyInput) {
  EXPECT_TRUE(RleEncode({}).empty());
  Result<std::vector<uint8_t>> back = RleDecode("", 0);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(RleTest, RejectsMalformedStreams) {
  EXPECT_TRUE(RleDecode("x", 1).status().IsCorruption());  // odd length
  std::string zero_run;
  zero_run.push_back('\0');
  zero_run.push_back('a');
  EXPECT_TRUE(RleDecode(zero_run, 1).status().IsCorruption());
  // Overrun and underrun.
  std::string two;
  two.push_back(2);
  two.push_back('a');
  EXPECT_TRUE(RleDecode(two, 1).status().IsCorruption());
  EXPECT_TRUE(RleDecode(two, 3).status().IsCorruption());
}

VideoClip RenderShortClip(int frames) {
  TunnelScenarioOptions options;
  options.total_frames = frames;
  options.num_wall_crashes = 0;
  options.num_sudden_stops = 0;
  options.num_speeding = 0;
  options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(options);
  TrafficWorld world(scenario);
  Renderer renderer(scenario.layout);
  VideoClip clip;
  clip.metadata().fps = 25.0;
  while (!world.Done()) {
    world.Step();
    clip.Append(renderer.Render(world.vehicles()));
  }
  return clip;
}

TEST(FrameStoreTest, ClipRoundtripIsExact) {
  const VideoClip clip = RenderShortClip(40);
  const std::string bytes = SerializeFrames(clip);
  Result<VideoClip> back = DeserializeFrames(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->frame_count(), clip.frame_count());
  EXPECT_EQ(back->metadata().width, clip.metadata().width);
  EXPECT_DOUBLE_EQ(back->metadata().fps, 25.0);
  for (size_t i = 0; i < clip.frame_count(); ++i) {
    ASSERT_EQ(back->frame(i).pixels(), clip.frame(i).pixels()) << i;
  }
}

TEST(FrameStoreTest, DetectsCorruption) {
  const VideoClip clip = RenderShortClip(5);
  std::string bytes = SerializeFrames(clip);
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_TRUE(DeserializeFrames(bytes).status().IsCorruption());
  EXPECT_FALSE(DeserializeFrames("junk").ok());
}

TEST(FrameStoreTest, VideoDbSaveLoadHasDelete) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mivid_db_video").string();
  std::filesystem::remove_all(dir);
  VideoDbOptions options;
  options.create_if_missing = true;
  auto db = VideoDb::Open(dir, options);
  ASSERT_TRUE(db.ok());
  ClipInfo info;
  info.camera_id = "cam";
  Result<int> id = db.value()->IngestClip(info, {}, {});
  ASSERT_TRUE(id.ok());

  EXPECT_FALSE(db.value()->HasClipVideo(id.value()));
  EXPECT_TRUE(
      db.value()->LoadClipVideo(id.value()).status().IsNotFound());
  // Saving video for a nonexistent clip fails.
  EXPECT_TRUE(
      db.value()->SaveClipVideo(99, RenderShortClip(3)).IsNotFound());

  const VideoClip clip = RenderShortClip(10);
  ASSERT_TRUE(db.value()->SaveClipVideo(id.value(), clip).ok());
  EXPECT_TRUE(db.value()->HasClipVideo(id.value()));
  Result<VideoClip> back = db.value()->LoadClipVideo(id.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->frame_count(), 10u);
  std::filesystem::remove_all(dir);
}

TEST(FrameStoreTest, AdaptiveEncodingNeverExpandsMuch) {
  // Noisy frames fall back to raw storage: total size stays within a
  // small constant overhead of the raw pixel payload.
  const VideoClip noisy = RenderShortClip(20);
  const size_t raw = noisy.frame_count() *
                     static_cast<size_t>(noisy.metadata().width) *
                     static_cast<size_t>(noisy.metadata().height);
  EXPECT_LT(SerializeFrames(noisy).size(), raw + 1024);

  // Noise-free frames compress well below raw.
  VideoClip flat;
  flat.metadata().fps = 25.0;
  for (int i = 0; i < 20; ++i) flat.Append(Frame(320, 240, 90));
  const size_t flat_raw = 20u * 320u * 240u;
  EXPECT_LT(SerializeFrames(flat).size(), flat_raw / 50);
  // And still roundtrip exactly.
  Result<VideoClip> back = DeserializeFrames(SerializeFrames(flat));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->frame(7).pixels(), flat.frame(7).pixels());
}

}  // namespace
}  // namespace mivid
