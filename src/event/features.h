// Sampling-point property vectors (paper Sec. 4).
//
// With a sampling rate of R frames per checkpoint, each track yields a
// series of checkpoints. At checkpoint i the paper records the property
// vector a_i = [1/mdist_i, vdiff_i, theta_i]:
//   - mdist: distance to the nearest other vehicle at that checkpoint,
//   - vdiff: change of speed versus the previous checkpoint,
//   - theta: absolute angle between consecutive motion vectors (Fig. 3).
// We also keep the raw speed so alternative event models (e.g. speeding)
// can be expressed; it joins the vector only when
// FeatureOptions::include_velocity is set.

#ifndef MIVID_EVENT_FEATURES_H_
#define MIVID_EVENT_FEATURES_H_

#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "trajectory/trajectory.h"

namespace mivid {

/// Feature extraction parameters.
struct FeatureOptions {
  int sampling_rate = 5;        ///< frames per checkpoint (paper: 5)
  double min_mdist = 1.0;       ///< clamp so 1/mdist stays finite
  double min_motion = 1.0;      ///< motion vectors shorter than this (px)
                                ///< carry no reliable direction: theta = 0
  bool include_velocity = false; ///< append speed as a 4th feature
};

/// The property vector of one checkpoint on one trajectory.
struct SamplingPointFeatures {
  int frame = 0;          ///< absolute frame index of the checkpoint
  Point2 centroid;        ///< position at the checkpoint
  double speed = 0.0;     ///< px/frame between previous and this checkpoint
  double inv_mdist = 0.0; ///< 1/mdist; 0 when no other vehicle is visible
  double vdiff = 0.0;     ///< |speed - previous speed|
  double theta = 0.0;     ///< angle between consecutive motion vectors, rad

  /// a_i as used by scoring and learning. 3 features by default; 4 with
  /// include_velocity.
  Vec ToVector(bool include_velocity) const {
    Vec v{inv_mdist, vdiff, theta};
    if (include_velocity) v.push_back(speed);
    return v;
  }
};

/// All checkpoint features of one track.
struct TrackFeatures {
  int track_id = -1;
  std::vector<SamplingPointFeatures> points;  ///< ascending frame order
};

/// The checkpoint kernel: the property vector of checkpoint `i` of track
/// `track_id`, whose grid checkpoints so far are `checkpoints[0..i]`.
/// `covisible` lists every eligible track (id, centroid) at that grid
/// frame, the track itself included; mdist is the distance to the
/// nearest other one. ComputeTrackFeatures and the streaming extractor
/// (ingest/clip_extractor.h) both compute every checkpoint through it.
SamplingPointFeatures CheckpointFeatures(
    int track_id, const std::vector<TrackPoint>& checkpoints, size_t i,
    const std::vector<std::pair<int, Point2>>& covisible,
    const FeatureOptions& options);

/// Computes checkpoint features for every track of a clip. Checkpoints lie
/// on the shared grid (frame % sampling_rate == 0) so that mdist can relate
/// co-occurring vehicles; tracks shorter than two checkpoints are dropped.
std::vector<TrackFeatures> ComputeTrackFeatures(
    const std::vector<Track>& tracks, const FeatureOptions& options);

/// Min-max feature scaler fitted over every checkpoint of a clip.
///
/// The three raw features live on incommensurate scales (1/px, px/frame,
/// radians); the paper's square-sum heuristic and inverse-std-dev weights
/// presume comparable ranges, so all downstream consumers work on features
/// normalized to [0, 1] per dimension.
class FeatureScaler {
 public:
  /// Fits per-dimension [min, max] over all checkpoints.
  static FeatureScaler Fit(const std::vector<TrackFeatures>& tracks,
                           bool include_velocity);

  /// Folds one raw vector into the running per-dimension [min, max]; the
  /// first vector fixes the dimension. Fit and the streaming extractor
  /// both build their scalers with it.
  void Add(const Vec& raw);

  /// Ends a fold: a scaler that saw no vector becomes the identity over
  /// the nominal dimension (3, or 4 with include_velocity).
  void Finish(bool include_velocity);

  /// Returns the normalized copy of a raw vector (clamped to [0, 1]).
  Vec Apply(const Vec& raw) const;

  size_t dimension() const { return lo_.size(); }
  const Vec& lower() const { return lo_; }
  const Vec& upper() const { return hi_; }

 private:
  Vec lo_;
  Vec hi_;
};

}  // namespace mivid

#endif  // MIVID_EVENT_FEATURES_H_
