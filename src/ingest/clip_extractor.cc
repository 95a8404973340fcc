#include "ingest/clip_extractor.h"

#include <algorithm>

#include "common/logging.h"

namespace mivid {

IncrementalClipExtractor::IncrementalClipExtractor(
    const FeatureOptions& features, const WindowOptions& windows)
    : features_(features),
      rate_(std::max(1, features.sampling_rate)),
      slicer_(features, windows) {}

void IncrementalClipExtractor::Observe(
    int frame, const std::vector<TrackObservation>& obs) {
  MIVID_CHECK(frame > current_frame_)
      << "extractor frames must be strictly ascending: " << frame
      << " after " << current_frame_;
  current_frame_ = frame;

  if (frame % rate_ == 0) {
    for (const auto& o : obs) {
      TrackState& s = tracks_[o.track_id];
      if (s.retired) continue;  // late observation, dropped upstream too
      if (!s.checkpoints.empty() && s.checkpoints.back().frame == frame) {
        continue;  // duplicate
      }
      s.features.track_id = o.track_id;
      s.checkpoints.push_back(TrackPoint{frame, o.centroid, o.bbox});
      tracks_at_grid_[frame].push_back(o.track_id);
    }
  }
  AdvanceWatermark();
}

void IncrementalClipExtractor::Retire(int track_id) {
  auto it = tracks_.find(track_id);
  if (it == tracks_.end()) return;  // never seen on the grid: no effect
  it->second.retired = true;
  AdvanceWatermark();
}

void IncrementalClipExtractor::AdvanceWatermark() {
  while (next_grid_ <= current_frame_) {
    auto it = tracks_at_grid_.find(next_grid_);
    if (it != tracks_at_grid_.end()) {
      for (int id : it->second) {
        if (!Resolved(tracks_.at(id))) return;  // watermark waits
      }
    }
    CommitGrid(next_grid_);
    next_grid_ += rate_;
  }
}

void IncrementalClipExtractor::CommitGrid(int g) {
  // Eligible tracks at g with their centroids, ascending id (the final
  // track order — the builder finishes tracks in id order, so this
  // matches the batch track order). Every earlier checkpoint of an
  // eligible track is already committed, so its checkpoint at g is the
  // next one.
  std::vector<std::pair<int, Point2>> covisible;
  auto it = tracks_at_grid_.find(g);
  if (it != tracks_at_grid_.end()) {
    for (int id : it->second) {
      const TrackState& s = tracks_.at(id);
      if (s.checkpoints.size() < 2) continue;
      const TrackPoint& cp = s.checkpoints[s.features.points.size()];
      MIVID_CHECK(cp.frame == g)
          << "checkpoint committed out of order for track " << id;
      covisible.emplace_back(id, cp.centroid);
    }
    std::sort(covisible.begin(), covisible.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  std::vector<const TrackFeatures*> bag_order;
  bag_order.reserve(covisible.size());
  for (const auto& [id, centroid] : covisible) {
    TrackState& s = tracks_.at(id);
    const SamplingPointFeatures f = CheckpointFeatures(
        id, s.checkpoints, s.features.points.size(), covisible, features_);
    scaler_.Add(f.ToVector(features_.include_velocity));
    s.features.points.push_back(f);
    bag_order.push_back(&s.features);
  }

  const int vs_id = slicer_.WindowEndingAt(g);
  if (vs_id >= 0) slicer_.Slice(vs_id, bag_order, &windows_);
  tracks_at_grid_.erase(g);
}

IncrementalClipExtractor::Output IncrementalClipExtractor::Finish(
    int total_frames) {
  MIVID_CHECK(total_frames > current_frame_)
      << "total_frames " << total_frames
      << " does not cover observed frame " << current_frame_;
  for (auto& [id, s] : tracks_) s.retired = true;
  current_frame_ = total_frames - 1;
  AdvanceWatermark();
  MIVID_CHECK(tracks_at_grid_.empty());

  Output out;
  out.windows = std::move(windows_);
  scaler_.Finish(features_.include_velocity);
  out.scaler = std::move(scaler_);

  tracks_.clear();
  tracks_at_grid_.clear();
  windows_.clear();
  scaler_ = FeatureScaler();
  current_frame_ = -1;
  next_grid_ = 0;
  return out;
}

}  // namespace mivid
