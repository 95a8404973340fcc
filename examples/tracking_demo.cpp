// Tracking demo (paper Fig. 1 analogue): renders a few frames of the
// tunnel scene, runs the segmentation + tracking front end, and writes
// annotated PPM images with each vehicle's Minimal Bounding Rectangle
// (yellow) and centroid (red dot), plus the trail of recent centroids.
//
// Output: tracking_frame_<n>.ppm in the current directory.

#include <cstdio>
#include <deque>
#include <vector>

#include "segment/segmenter.h"
#include "track/tracker.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"
#include "video/draw.h"

using namespace mivid;

int main() {
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 400;
  scenario_options.min_spawn_gap = 70;   // busier scene for a nicer picture
  scenario_options.max_spawn_gap = 110;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 0;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);

  TrafficWorld world(scenario);
  Renderer renderer(scenario.layout);
  VehicleSegmenter segmenter;
  Tracker tracker;

  // Keep a short trail of recent detections for the overlay.
  std::deque<std::vector<Point2>> recent_centroids;

  int exported = 0;
  while (!world.Done()) {
    world.Step();
    const int frame_index = world.frame() - 1;
    const Frame frame = renderer.Render(world.vehicles());
    const std::vector<Blob> blobs = segmenter.Process(frame);
    tracker.Observe(frame_index, blobs);

    std::vector<Point2> centroids;
    for (const auto& blob : blobs) centroids.push_back(blob.centroid);
    recent_centroids.push_back(std::move(centroids));
    if (recent_centroids.size() > 30) recent_centroids.pop_front();

    if (frame_index % 60 == 30 && !blobs.empty() && exported < 5) {
      RgbImage canvas = ToRgb(frame);
      // Trails first so boxes and dots draw over them.
      for (const auto& past : recent_centroids) {
        for (const auto& c : past) DrawDisc(&canvas, c, 0, 80, 160, 255);
      }
      for (const auto& blob : blobs) {
        DrawRectOutline(&canvas, blob.mbr, 255, 220, 0);   // yellow MBR
        DrawDisc(&canvas, blob.centroid, 2, 255, 0, 0);    // red centroid
      }
      char name[64];
      std::snprintf(name, sizeof(name), "tracking_frame_%04d.ppm",
                    frame_index);
      const Status s = WritePpm(canvas, name);
      std::printf("frame %4d: %zu vehicle segments -> %s (%s)\n", frame_index,
                  blobs.size(), name, s.ok() ? "written" : "FAILED");
      ++exported;
    }
  }

  const std::vector<Track> tracks = tracker.Finish();
  std::printf("\ntracked %zu vehicles across %d frames:\n", tracks.size(),
              scenario.total_frames);
  for (const auto& t : tracks) {
    std::printf("  track %-3d frames [%4d..%4d]  path length %.0f px\n", t.id,
                t.first_frame(), t.last_frame(), t.PathLength());
  }
  return 0;
}
