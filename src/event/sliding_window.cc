#include "event/sliding_window.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

Vec TrajectorySequence::Flatten(const FeatureScaler& scaler,
                                bool include_velocity) const {
  Vec out;
  out.reserve(points.size() * scaler.dimension());
  for (const auto& p : points) {
    const Vec n = scaler.Apply(p.ToVector(include_velocity));
    out.insert(out.end(), n.begin(), n.end());
  }
  return out;
}

Vec TrajectorySequence::FlattenRaw(bool include_velocity) const {
  Vec out;
  for (const auto& p : points) {
    const Vec v = p.ToVector(include_velocity);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

WindowSlicer::WindowSlicer(const FeatureOptions& feature_options,
                           const WindowOptions& options)
    : rate_(std::max(1, feature_options.sampling_rate)),
      window_size_(std::max(1, options.window_size)),
      step_(std::max(1, options.stride) * rate_),
      keep_empty_(options.keep_empty) {}

int WindowSlicer::WindowCount(int total_frames) const {
  const int last_grid = (total_frames - 1) / rate_ * rate_;
  const int last_start = last_grid - (window_size_ - 1) * rate_;
  return last_start < 0 ? 0 : last_start / step_ + 1;
}

int WindowSlicer::WindowEndingAt(int end_frame) const {
  const int start = end_frame - (window_size_ - 1) * rate_;
  return start >= 0 && start % step_ == 0 ? start / step_ : -1;
}

void WindowSlicer::Slice(int vs_id,
                         const std::vector<const TrackFeatures*>& tracks,
                         std::vector<VideoSequence>* out) const {
  VideoSequence vs;
  vs.vs_id = vs_id;
  vs.begin_frame = vs_id * step_;
  vs.end_frame = vs.begin_frame + (window_size_ - 1) * rate_;

  for (const TrackFeatures* track : tracks) {
    TrajectorySequence ts;
    ts.track_id = track->track_id;
    ts.vs_id = vs_id;
    auto it = std::lower_bound(
        track->points.begin(), track->points.end(), vs.begin_frame,
        [](const SamplingPointFeatures& p, int frame) {
          return p.frame < frame;
        });
    // The track must cover every checkpoint of the window.
    for (int k = 0; k < window_size_; ++k, ++it) {
      if (it == track->points.end() ||
          it->frame != vs.begin_frame + k * rate_) {
        break;
      }
      ts.points.push_back(*it);
    }
    if (static_cast<int>(ts.points.size()) == window_size_) {
      vs.ts.push_back(std::move(ts));
    }
  }

  if (!vs.ts.empty() || keep_empty_) out->push_back(std::move(vs));
}

std::vector<VideoSequence> ExtractWindows(
    const std::vector<TrackFeatures>& tracks, int total_frames,
    const FeatureOptions& feature_options, const WindowOptions& options) {
  MIVID_TRACE_SPAN("event/extract_windows");
  MIVID_SCOPED_TIMER("window/extract_seconds");
  const WindowSlicer slicer(feature_options, options);
  std::vector<const TrackFeatures*> bag_order;
  bag_order.reserve(tracks.size());
  for (const TrackFeatures& track : tracks) bag_order.push_back(&track);

  std::vector<VideoSequence> windows;
  const int count = slicer.WindowCount(total_frames);
  for (int vs_id = 0; vs_id < count; ++vs_id) {
    slicer.Slice(vs_id, bag_order, &windows);
  }
  MIVID_METRIC_COUNT("window/vs", windows.size());
  MIVID_METRIC_COUNT("window/ts", CountTrajectorySequences(windows));
  return windows;
}

size_t CountTrajectorySequences(const std::vector<VideoSequence>& windows) {
  size_t n = 0;
  for (const auto& vs : windows) n += vs.ts.size();
  return n;
}

}  // namespace mivid
