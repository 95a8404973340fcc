#include "event/features.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace mivid {

SamplingPointFeatures CheckpointFeatures(
    int track_id, const std::vector<TrackPoint>& cp, size_t i,
    const std::vector<std::pair<int, Point2>>& covisible,
    const FeatureOptions& options) {
  SamplingPointFeatures f;
  f.frame = cp[i].frame;
  f.centroid = cp[i].centroid;

  if (i >= 1) {
    const int dt = cp[i].frame - cp[i - 1].frame;
    f.speed = Distance(cp[i].centroid, cp[i - 1].centroid) / std::max(1, dt);
  }
  if (i >= 2) {
    const int dt_prev = cp[i - 1].frame - cp[i - 2].frame;
    const double prev_speed =
        Distance(cp[i - 1].centroid, cp[i - 2].centroid) /
        std::max(1, dt_prev);
    f.vdiff = std::fabs(f.speed - prev_speed);
    const Vec2 m1 = cp[i - 1].centroid - cp[i - 2].centroid;
    const Vec2 m2 = cp[i].centroid - cp[i - 1].centroid;
    // Centroid jitter on a near-stationary vehicle produces random
    // directions; only measure the angle when both motion vectors are
    // long enough to be trustworthy.
    f.theta = m1.Norm() >= options.min_motion &&
                      m2.Norm() >= options.min_motion
                  ? AngleBetween(m1, m2)
                  : 0.0;
  }

  // Minimum distance to the nearest co-visible vehicle.
  double mdist = -1.0;
  for (const auto& [other_id, centroid] : covisible) {
    if (other_id == track_id) continue;
    const double d = Distance(f.centroid, centroid);
    if (mdist < 0 || d < mdist) mdist = d;
  }
  f.inv_mdist = mdist < 0 ? 0.0 : 1.0 / std::max(mdist, options.min_mdist);
  return f;
}

std::vector<TrackFeatures> ComputeTrackFeatures(
    const std::vector<Track>& tracks, const FeatureOptions& options) {
  const int rate = std::max(1, options.sampling_rate);

  // Checkpoint positions per track on the shared grid.
  struct Sampled {
    int track_id;
    std::vector<TrackPoint> points;
  };
  std::vector<Sampled> sampled;
  for (const auto& track : tracks) {
    Sampled s{track.id, SampleEvery(track, rate)};
    if (s.points.size() >= 2) sampled.push_back(std::move(s));
  }

  // Index centroids of every track by grid frame for mdist lookups.
  std::map<int, std::vector<std::pair<int, Point2>>> by_frame;
  for (const auto& s : sampled) {
    for (const auto& p : s.points) {
      by_frame[p.frame].emplace_back(s.track_id, p.centroid);
    }
  }

  std::vector<TrackFeatures> out;
  out.reserve(sampled.size());
  for (const auto& s : sampled) {
    TrackFeatures tf;
    tf.track_id = s.track_id;
    tf.points.reserve(s.points.size());
    for (size_t i = 0; i < s.points.size(); ++i) {
      tf.points.push_back(CheckpointFeatures(
          s.track_id, s.points, i, by_frame.at(s.points[i].frame), options));
    }
    out.push_back(std::move(tf));
  }
  return out;
}

FeatureScaler FeatureScaler::Fit(const std::vector<TrackFeatures>& tracks,
                                 bool include_velocity) {
  FeatureScaler scaler;
  for (const auto& tf : tracks) {
    for (const auto& p : tf.points) scaler.Add(p.ToVector(include_velocity));
  }
  scaler.Finish(include_velocity);
  return scaler;
}

void FeatureScaler::Add(const Vec& raw) {
  if (lo_.empty()) {
    lo_ = raw;
    hi_ = raw;
    return;
  }
  for (size_t d = 0; d < raw.size(); ++d) {
    lo_[d] = std::min(lo_[d], raw[d]);
    hi_[d] = std::max(hi_[d], raw[d]);
  }
}

void FeatureScaler::Finish(bool include_velocity) {
  if (!lo_.empty()) return;
  // No data: identity scaler over the nominal dimension.
  lo_.assign(include_velocity ? 4 : 3, 0.0);
  hi_.assign(include_velocity ? 4 : 3, 1.0);
}

Vec FeatureScaler::Apply(const Vec& raw) const {
  Vec out(raw.size());
  for (size_t d = 0; d < raw.size() && d < lo_.size(); ++d) {
    const double span = hi_[d] - lo_[d];
    out[d] = span > 0 ? std::clamp((raw[d] - lo_[d]) / span, 0.0, 1.0) : 0.0;
  }
  return out;
}

}  // namespace mivid
