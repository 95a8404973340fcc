// Tests for trafficsim/: lanes, driver model, world stepping, incidents,
// scenario scripts, renderer.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"
#include "trafficsim/world.h"

namespace mivid {
namespace {

TEST(LaneTest, ArclengthParameterization) {
  Lane lane(0, {{0, 0}, {10, 0}, {10, 10}}, 3.0);
  EXPECT_DOUBLE_EQ(lane.Length(), 20.0);
  EXPECT_EQ(lane.PointAt(0), Point2(0, 0));
  EXPECT_EQ(lane.PointAt(5), Point2(5, 0));
  EXPECT_EQ(lane.PointAt(15), Point2(10, 5));
  // Clamps beyond the ends.
  EXPECT_EQ(lane.PointAt(-3), Point2(0, 0));
  EXPECT_EQ(lane.PointAt(99), Point2(10, 10));
}

TEST(LaneTest, HeadingFollowsSegments) {
  Lane lane(0, {{0, 0}, {10, 0}, {10, 10}}, 3.0);
  EXPECT_NEAR(lane.HeadingAt(5), 0.0, 1e-12);
  EXPECT_NEAR(lane.HeadingAt(15), M_PI / 2, 1e-12);
}

TEST(RoadLayoutTest, SignalPhases) {
  RoadLayout layout;
  layout.num_signal_groups = 2;
  layout.signal_phase_frames = 100;
  EXPECT_TRUE(layout.IsGreen(0, 0));
  EXPECT_TRUE(layout.IsGreen(0, 99));
  EXPECT_FALSE(layout.IsGreen(0, 100));
  EXPECT_TRUE(layout.IsGreen(1, 100));
  EXPECT_TRUE(layout.IsGreen(0, 200));  // cycle repeats
  EXPECT_TRUE(layout.IsGreen(-1, 50));  // uncontrolled always green
}

TEST(VehicleTest, DimsAndMbr) {
  VehicleState v;
  v.type = VehicleType::kCar;
  v.position = {100, 100};
  v.heading = 0.0;
  const BBox mbr = v.Mbr();
  EXPECT_NEAR(mbr.Width(), 16.0, 1e-9);
  EXPECT_NEAR(mbr.Height(), 8.0, 1e-9);
  v.heading = M_PI / 2;
  const BBox rotated = v.Mbr();
  EXPECT_NEAR(rotated.Width(), 8.0, 1e-9);
  EXPECT_NEAR(rotated.Height(), 16.0, 1e-9);
}

TEST(VehicleTest, TypeNames) {
  EXPECT_STREQ(VehicleTypeName(VehicleType::kCar), "car");
  EXPECT_STREQ(VehicleTypeName(VehicleType::kTruck), "truck");
  EXPECT_GT(DimsFor(VehicleType::kTruck).length,
            DimsFor(VehicleType::kCar).length);
}

TEST(DriverTest, FreeRoadApproachesDesiredSpeed) {
  VehicleState v;
  v.speed = 0.5;
  DriverParams params;
  params.desired_speed = 3.0;
  params.speed_jitter = 0.0;
  DriverView view;  // empty road
  Lane lane(0, {{0, 0}, {1000, 0}}, 3.0);
  v.mode = MotionMode::kLaneFollow;
  for (int i = 0; i < 300; ++i) AdvanceLaneFollow(&v, lane, params, view, nullptr);
  EXPECT_NEAR(v.speed, 3.0, 0.05);
}

TEST(DriverTest, BrakesBehindSlowLeader) {
  VehicleState v;
  v.speed = 3.0;
  DriverParams params;
  params.desired_speed = 3.0;
  DriverView view;
  view.has_leader = true;
  view.leader_gap = 10.0;
  view.leader_speed = 0.5;
  const double a = ComputeAcceleration(v, params, view);
  EXPECT_LT(a, 0.0);
}

TEST(DriverTest, StopsAtRedLight) {
  VehicleState v;
  v.speed = 2.5;
  v.mode = MotionMode::kLaneFollow;
  DriverParams params;
  params.desired_speed = 2.5;
  params.speed_jitter = 0.0;
  params.wander_accel = 0.0;
  Lane lane(0, {{0, 0}, {500, 0}}, 2.5);
  for (int i = 0; i < 200; ++i) {
    DriverView view;
    const double gap = 200.0 - v.s;
    if (gap > 0) {
      view.has_red_stop_line = true;
      view.stop_line_gap = gap;
    }
    AdvanceLaneFollow(&v, lane, params, view, nullptr);
  }
  EXPECT_LT(v.speed, 0.2);
  EXPECT_LT(v.s, 201.0);
  EXPECT_GT(v.s, 150.0);  // stopped near, not far before, the line
}

TEST(DriverTest, HardDecelerationIsBounded) {
  VehicleState v;
  v.speed = 3.0;
  DriverParams params;
  DriverView view;
  view.has_leader = true;
  view.leader_gap = 0.5;
  view.leader_speed = 0.0;
  EXPECT_GE(ComputeAcceleration(v, params, view), -params.hard_decel - 1e-12);
}

TEST(IncidentTest, TypeClassification) {
  EXPECT_TRUE(IsAccidentType(IncidentType::kWallCrash));
  EXPECT_TRUE(IsAccidentType(IncidentType::kSuddenStop));
  EXPECT_TRUE(IsAccidentType(IncidentType::kRearEnd));
  EXPECT_TRUE(IsAccidentType(IncidentType::kCrossCollision));
  EXPECT_FALSE(IsAccidentType(IncidentType::kUTurn));
  EXPECT_FALSE(IsAccidentType(IncidentType::kSpeeding));
  EXPECT_STREQ(IncidentTypeName(IncidentType::kRearEnd), "rear_end");
}

TEST(IncidentTest, RecordOverlap) {
  IncidentRecord rec;
  rec.begin_frame = 100;
  rec.end_frame = 150;
  EXPECT_TRUE(rec.Overlaps(150, 200));
  EXPECT_TRUE(rec.Overlaps(0, 100));
  EXPECT_TRUE(rec.Overlaps(120, 130));
  EXPECT_FALSE(rec.Overlaps(151, 200));
  EXPECT_FALSE(rec.Overlaps(0, 99));
  IncidentRecord unstarted;
  EXPECT_FALSE(unstarted.Overlaps(0, 1000000));
}

TEST(WorldTest, SpawnsVehiclesOnSchedule) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 50;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200},
                 {10, 1, VehicleType::kSuv, 3.0, 210}};
  TrafficWorld world(spec);
  world.Step();
  EXPECT_EQ(world.ActiveVehicleCount(), 1);
  for (int i = 0; i < 10; ++i) world.Step();
  EXPECT_EQ(world.ActiveVehicleCount(), 2);
}

TEST(WorldTest, VehiclesMoveForwardAndDespawn) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 400;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.tracks.size(), 1u);
  const Track& t = gt.tracks[0];
  ASSERT_GE(t.points.size(), 50u);
  // Monotonically non-decreasing x (eastbound lane).
  for (size_t i = 1; i < t.points.size(); ++i) {
    EXPECT_GE(t.points[i].centroid.x + 1e-9, t.points[i - 1].centroid.x);
  }
  // Despawned before the end: last frame well before total_frames.
  EXPECT_LT(t.last_frame(), 300);
}

TEST(WorldTest, GroundTruthOnlyRecordsVisibleFrames) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 100;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  for (const auto& p : gt.tracks[0].points) {
    EXPECT_GE(p.bbox.max_x, 0.0);
    EXPECT_LE(p.bbox.min_x, spec.layout.width);
  }
}

TEST(WorldTest, SuddenStopIncidentRunsAndResumes) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 600;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  IncidentSpec inc;
  inc.type = IncidentType::kSuddenStop;
  inc.trigger_frame = 60;
  inc.hold_frames = 20;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  const IncidentRecord& rec = gt.incidents[0];
  EXPECT_EQ(rec.type, IncidentType::kSuddenStop);
  EXPECT_GE(rec.begin_frame, 60);
  EXPECT_GT(rec.end_frame, rec.begin_frame);
  ASSERT_EQ(rec.vehicle_ids.size(), 1u);

  // The vehicle actually came to a stop: consecutive centroids repeat.
  const Track& t = gt.tracks[0];
  bool stopped = false;
  for (size_t i = 1; i < t.points.size(); ++i) {
    if (t.points[i].frame > rec.begin_frame &&
        t.points[i].frame < rec.end_frame &&
        Distance(t.points[i].centroid, t.points[i - 1].centroid) < 0.01) {
      stopped = true;
    }
  }
  EXPECT_TRUE(stopped);
}

TEST(WorldTest, WallCrashEndsAgainstWall) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 600;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  IncidentSpec inc;
  inc.type = IncidentType::kWallCrash;
  inc.trigger_frame = 50;
  inc.hold_frames = 20;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  EXPECT_EQ(gt.incidents[0].type, IncidentType::kWallCrash);
  // Final recorded position is near/inside a wall band.
  const Track& t = gt.tracks[0];
  const Point2 last = t.points.back().centroid;
  bool near_wall = false;
  for (const auto& wall : spec.layout.walls) {
    if (wall.Inflated(12).Contains(last)) near_wall = true;
  }
  EXPECT_TRUE(near_wall);
}

TEST(WorldTest, UTurnReversesDirection) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 600;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  IncidentSpec inc;
  inc.type = IncidentType::kUTurn;
  inc.trigger_frame = 60;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  const Track& t = gt.tracks[0];
  // x eventually decreases (vehicle heads back west).
  double max_x = 0;
  bool reversed = false;
  for (const auto& p : t.points) {
    max_x = std::max(max_x, p.centroid.x);
    if (p.centroid.x < max_x - 30) reversed = true;
  }
  EXPECT_TRUE(reversed);
}

TEST(WorldTest, CrossCollisionStopsBothVehicles) {
  ScenarioSpec spec;
  spec.layout = MakeIntersectionLayout();
  spec.total_frames = 500;
  // One eastbound runner, one southbound victim timed to be approaching.
  spec.spawns = {{0, 0, VehicleType::kCar, 2.5, 200},
                 {0, 2, VehicleType::kSuv, 2.4, 210}};
  IncidentSpec inc;
  inc.type = IncidentType::kCrossCollision;
  inc.trigger_frame = 20;
  inc.hold_frames = 25;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  const IncidentRecord& rec = gt.incidents[0];
  EXPECT_EQ(rec.vehicle_ids.size(), 2u);
  // Both tracks end near the conflict area (center of the scene).
  int ended_near_center = 0;
  for (const auto& t : gt.tracks) {
    const Point2 last = t.points.back().centroid;
    if (Distance(last, {160, 120}) < 60) ++ended_near_center;
  }
  EXPECT_EQ(ended_near_center, 2);
}

TEST(WorldTest, VehicleInIncidentQuery) {
  GroundTruth gt;
  IncidentRecord rec;
  rec.type = IncidentType::kRearEnd;
  rec.begin_frame = 10;
  rec.end_frame = 20;
  rec.vehicle_ids = {3, 4};
  gt.incidents = {rec};
  EXPECT_TRUE(gt.VehicleInIncident(3, 15, 25, {IncidentType::kRearEnd}));
  EXPECT_FALSE(gt.VehicleInIncident(5, 15, 25, {IncidentType::kRearEnd}));
  EXPECT_FALSE(gt.VehicleInIncident(3, 21, 25, {IncidentType::kRearEnd}));
  EXPECT_FALSE(gt.VehicleInIncident(3, 15, 25, {IncidentType::kUTurn}));
}

TEST(ScenarioTest, TunnelScriptIsDeterministic) {
  const ScenarioSpec a = MakeTunnelScenario();
  const ScenarioSpec b = MakeTunnelScenario();
  ASSERT_EQ(a.spawns.size(), b.spawns.size());
  for (size_t i = 0; i < a.spawns.size(); ++i) {
    EXPECT_EQ(a.spawns[i].frame, b.spawns[i].frame);
    EXPECT_EQ(a.spawns[i].lane_id, b.spawns[i].lane_id);
  }
  ASSERT_EQ(a.incidents.size(), b.incidents.size());
  TrafficWorld wa(a), wb(b);
  const GroundTruth ga = wa.Run(), gb = wb.Run();
  ASSERT_EQ(ga.tracks.size(), gb.tracks.size());
  ASSERT_EQ(ga.incidents.size(), gb.incidents.size());
  for (size_t i = 0; i < ga.incidents.size(); ++i) {
    EXPECT_EQ(ga.incidents[i].begin_frame, gb.incidents[i].begin_frame);
  }
}

TEST(ScenarioTest, TunnelMatchesPaperScale) {
  const ScenarioSpec spec = MakeTunnelScenario();
  EXPECT_EQ(spec.total_frames, 2504);  // paper clip 1
  EXPECT_GE(spec.spawns.size(), 8u);
  EXPECT_GE(spec.incidents.size(), 6u);
}

TEST(ScenarioTest, IntersectionMatchesPaperScale) {
  const ScenarioSpec spec = MakeIntersectionScenario();
  EXPECT_EQ(spec.total_frames, 592);  // paper clip 2
  EXPECT_GE(spec.spawns.size(), 10u);
  EXPECT_EQ(spec.layout.num_signal_groups, 2);
}

TEST(ScenarioTest, IncidentsSortedByTrigger) {
  const ScenarioSpec spec = MakeIntersectionScenario();
  for (size_t i = 1; i < spec.incidents.size(); ++i) {
    EXPECT_LE(spec.incidents[i - 1].trigger_frame,
              spec.incidents[i].trigger_frame);
  }
}

TEST(RendererTest, BackgroundContainsRoadAndWalls) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer renderer(layout, RenderOptions{0.0});
  const Frame& bg = renderer.background();
  EXPECT_EQ(bg.width(), layout.width);
  // Road band is road_shade; wall band brighter.
  EXPECT_EQ(bg.At(160, 120), layout.road_shade);
  EXPECT_EQ(bg.At(160, 90), 150);  // wall cladding
}

TEST(RendererTest, VehiclesAppearAtTheirPosition) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer renderer(layout, RenderOptions{0.0});
  VehicleState v;
  v.id = 0;
  v.type = VehicleType::kCar;
  v.shade = 222;
  v.mode = MotionMode::kLaneFollow;
  v.position = {160, 110};
  v.heading = 0;
  const Frame frame = renderer.Render({v});
  EXPECT_EQ(frame.At(160, 110), 222);
  EXPECT_NE(frame.At(160, 130), 222);
}

TEST(RendererTest, NoiseIsDeterministicPerRenderer) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer r1(layout, RenderOptions{4.0});
  Renderer r2(layout, RenderOptions{4.0});
  const Frame f1 = r1.Render({});
  const Frame f2 = r2.Render({});
  EXPECT_EQ(f1.pixels(), f2.pixels());
}

/// The renderer's illumination offset for frame `f`.
double Illumination(const RenderOptions& ro, int f) {
  if (ro.illumination_amplitude <= 0 || ro.illumination_period <= 0) return 0;
  return ro.illumination_amplitude *
         std::sin(2.0 * M_PI * f / ro.illumination_period);
}

/// P(floor(offset + sigma * g) <= k) for standard normal g.
double FloorCdf(int k, double offset, double sigma) {
  return 0.5 * std::erfc(-((k + 1 - offset) / sigma) * M_SQRT1_2);
}

/// Sensor noise written plainly: every pixel takes one 32-bit half of a
/// Next() (high half first) and the first class k in [kmin, kmax] whose
/// rounded 2^32 * FloorCdf exceeds it, found by linear search.
void ReferenceNoise(double offset, double sigma, Rng* rng,
                    std::vector<uint8_t>* px) {
  const int kmin = static_cast<int>(
      std::clamp(std::floor(offset - 9.0 * sigma), -255.0, 255.0));
  const int kmax = static_cast<int>(
      std::clamp(std::floor(offset + 9.0 * sigma), -255.0, 255.0));
  std::vector<uint64_t> threshold;
  for (int k = kmin; k < kmax; ++k) {
    threshold.push_back(static_cast<uint64_t>(
        std::llround(0x1p32 * FloorCdf(k, offset, sigma))));
  }
  uint64_t r = 0;
  for (size_t i = 0; i < px->size(); ++i) {
    if (i % 2 == 0) r = rng->Next();
    const uint32_t u = static_cast<uint32_t>(i % 2 == 0 ? r >> 32 : r);
    size_t c = 0;
    while (c < threshold.size() && threshold[c] <= u) ++c;
    const int v = (*px)[i] + kmin + static_cast<int>(c);
    (*px)[i] = static_cast<uint8_t>(std::clamp(v, 0, 255));
  }
}

TEST(RendererTest, NoiseMatchesReferenceSampler) {
  struct Case {
    RoadLayout layout;
    RenderOptions options;
  };
  RoadLayout odd = MakeIntersectionLayout();
  odd.width = 321;  // 321 x 239: every frame ends on half a Next()
  odd.height = 239;
  RenderOptions drift;
  drift.illumination_amplitude = 12.0;
  drift.illumination_period = 7;
  RenderOptions wide;  // 9 sigma spans past +-255; both clamps fire
  wide.noise_stddev = 40.0;
  wide.illumination_amplitude = 60.0;
  wide.illumination_period = 5;
  RenderOptions saturate;  // offsets +-400: the table is one class
  saturate.illumination_amplitude = 400.0;
  saturate.illumination_period = 4;
  const std::vector<Case> cases = {{MakeTunnelLayout(), RenderOptions{}},
                                   {MakeTunnelLayout(), drift},
                                   {MakeIntersectionLayout(), wide},
                                   {MakeTunnelLayout(), saturate},
                                   {odd, RenderOptions{}},
                                   {odd, drift}};
  for (size_t n = 0; n < cases.size(); ++n) {
    const Case& c = cases[n];
    Renderer renderer(c.layout, c.options);
    Rng rng(Renderer::kNoiseSeed);
    for (int f = 0; f < 4; ++f) {
      std::vector<uint8_t> want = renderer.background().pixels();
      ReferenceNoise(Illumination(c.options, f), c.options.noise_stddev, &rng,
                     &want);
      EXPECT_EQ(renderer.Render({}).pixels(), want)
          << "case " << n << " frame " << f;
    }
  }
}

TEST(RendererTest, NoiseMatchesReferenceSamplerOverRandomLaws) {
  // 200 laws (offset in [-300, 300], sigma in [0.05, 60]) on a small odd
  // frame whose shades sit next to both clamps. With amplitude |offset|
  // and period 4, frames 0-3 have offsets 0, |offset|, ~0 and -|offset|
  // at the same sigma, as the test's Illumination computes them.
  RoadLayout layout;
  layout.width = 67;
  layout.height = 45;
  layout.background_shade = 3;
  layout.road_shade = 252;
  layout.road_surface = {BBox(0, 10, 66, 30)};
  layout.walls = {BBox(20, 0, 40, 44)};
  Rng law(99);
  int one_split_bucket = 0, low_clamp = 0, high_clamp = 0;
  for (int n = 0; n < 200; ++n) {
    RenderOptions ro;
    // Log-uniform sigma, so that tiny ones (every threshold inside one
    // guide bucket) come up as often as wide ones; the first law pins
    // the extremes.
    const double log_sigma = law.Uniform(std::log(0.05), std::log(60.0));
    ro.noise_stddev = n == 0 ? 0.05 : std::exp(log_sigma);
    ro.illumination_amplitude =
        n == 0 ? 300.0 : std::fabs(law.Uniform(-300.0, 300.0));
    ro.illumination_period = 4;
    const double sigma = ro.noise_stddev;
    one_split_bucket += 18.0 * sigma < 1.0;
    Renderer renderer(layout, ro);
    Rng rng(Renderer::kNoiseSeed);
    for (int f = 0; f < 4; ++f) {
      const double offset = Illumination(ro, f);
      low_clamp += offset + 9.0 * sigma < -255.0;
      high_clamp += offset - 9.0 * sigma > 255.0;
      std::vector<uint8_t> want = renderer.background().pixels();
      ReferenceNoise(offset, sigma, &rng, &want);
      ASSERT_EQ(renderer.Render({}).pixels(), want)
          << "law " << n << " frame " << f << " offset " << offset
          << " sigma " << sigma;
    }
  }
  EXPECT_GT(one_split_bucket, 0);
  EXPECT_GT(low_clamp, 0);
  EXPECT_GT(high_clamp, 0);
}

TEST(RendererTest, NoiseFollowsDiscretizedGaussianLaw) {
  // A flat grey scene far from both clamps: byte - 128 is K = floor(offset
  // + sigma * g) for every pixel. Each class count must sit within 5
  // binomial standard errors of its expectation; classes expected fewer
  // than 10 times are pooled into one tail bin per side.
  RoadLayout flat;
  flat.background_shade = 128;
  for (double sigma : {6.0, 12.0}) {
    for (double amplitude : {0.0, 2.5}) {
      RenderOptions ro;
      ro.noise_stddev = sigma;
      ro.illumination_amplitude = amplitude;
      ro.illumination_period = 4;  // frames 1, 5: offset = +amplitude
      Renderer renderer(flat, ro);
      std::map<int, double> count, mean, var;
      for (int f = 0; f < 6; ++f) {
        const Frame frame = renderer.Render({});
        if (amplitude > 0 && f % 4 != 1) continue;
        const double o = Illumination(ro, f);
        for (uint8_t b : frame.pixels()) count[b - 128] += 1;
        const double n = static_cast<double>(frame.size());
        for (int k = -128; k <= 127; ++k) {
          const double p = FloorCdf(k, o, sigma) - FloorCdf(k - 1, o, sigma);
          mean[k] += n * p;
          var[k] += n * p * (1 - p);
        }
      }
      // Pool the thin classes into tail bins keyed -1000 / +1000.
      std::map<int, std::array<double, 3>> bins;  // observed, mean, var
      for (int k = -128; k <= 127; ++k) {
        const int key = mean[k] >= 10 ? k : (k < 0 ? -1000 : 1000);
        bins[key][0] += count[k];
        bins[key][1] += mean[k];
        bins[key][2] += var[k];
      }
      for (const auto& [k, b] : bins) {
        EXPECT_LE(std::fabs(b[0] - b[1]), 5.0 * std::sqrt(b[2]) + 1e-9)
            << "sigma " << sigma << " amplitude " << amplitude << " class "
            << k << " observed " << b[0] << " expected " << b[1];
      }
      EXPECT_GT(bins.size(), static_cast<size_t>(4 * sigma));
    }
  }
}

}  // namespace
}  // namespace mivid
