// Sliding-window extraction of Video Sequences and Trajectory Sequences
// (paper Sec. 5.1, Fig. 4).
//
// A window of `window_size` sampling points (paper: 3 points = 15 frames
// for car-crash events) slides over the clip's checkpoint grid with a
// configurable stride. Each window is a Video Sequence (VS, a bag); the
// portion of each track fully covering the window's checkpoints is a
// Trajectory Sequence (TS, an instance).

#ifndef MIVID_EVENT_SLIDING_WINDOW_H_
#define MIVID_EVENT_SLIDING_WINDOW_H_

#include <vector>

#include "event/features.h"

namespace mivid {

/// A TS: one track's feature sequence inside one window.
struct TrajectorySequence {
  int track_id = -1;
  int vs_id = -1;
  std::vector<SamplingPointFeatures> points;  ///< exactly window_size entries

  /// Concatenated normalized feature vector alpha = [a_1 ... a_n]
  /// (the representation One-class SVM learns from, Sec. 5.3).
  Vec Flatten(const FeatureScaler& scaler, bool include_velocity) const;

  /// Concatenated raw feature vector (heuristic / baseline space).
  Vec FlattenRaw(bool include_velocity) const;
};

/// A VS: one sliding-window bag of TS instances.
struct VideoSequence {
  int vs_id = -1;
  int begin_frame = 0;  ///< first checkpoint frame in the window
  int end_frame = 0;    ///< last checkpoint frame in the window
  std::vector<TrajectorySequence> ts;  ///< contained instances

  bool empty() const { return ts.empty(); }
};

/// Windowing parameters.
struct WindowOptions {
  int window_size = 3;  ///< checkpoints per window (paper: 3)
  int stride = 3;       ///< checkpoints the window advances per step;
                        ///< window_size => tiling, 1 => max overlap
  bool keep_empty = false;  ///< keep VSs with no TS (default: drop)
};

/// The window slicer: the grid of windows over a clip's checkpoints and
/// the rule that turns checkpoint features into a VS. ExtractWindows
/// slices every window of a finished clip; the streaming extractor
/// (ingest/clip_extractor.h) slices each window as its last grid frame
/// commits.
class WindowSlicer {
 public:
  WindowSlicer(const FeatureOptions& feature_options,
               const WindowOptions& options);

  /// Number of windows that fit a clip spanning [0, total_frames).
  int WindowCount(int total_frames) const;

  /// vs_id of the window whose last checkpoint is grid frame `end_frame`;
  /// -1 when no window ends there.
  int WindowEndingAt(int end_frame) const;

  /// Slices window `vs_id` from `tracks` (in bag order) and appends it to
  /// `out` unless it is empty and empty windows are dropped. A track
  /// contributes a TS only if it has a checkpoint at every grid frame of
  /// the window (the paper's TSs are "15 frames each"); each track's
  /// points must be in ascending frame order.
  void Slice(int vs_id, const std::vector<const TrackFeatures*>& tracks,
             std::vector<VideoSequence>* out) const;

 private:
  int rate_;
  int window_size_;
  int step_;  ///< frames between consecutive window starts
  bool keep_empty_;
};

/// Slides the window over the checkpoint grid of a clip spanning
/// [0, total_frames) and collects VSs with their TSs. A track contributes
/// a TS to a window only if it has a checkpoint at every grid frame of
/// the window (the paper's TSs are "15 frames each").
std::vector<VideoSequence> ExtractWindows(
    const std::vector<TrackFeatures>& tracks, int total_frames,
    const FeatureOptions& feature_options, const WindowOptions& options);

/// Total TS count across a set of windows.
size_t CountTrajectorySequences(const std::vector<VideoSequence>& windows);

}  // namespace mivid

#endif  // MIVID_EVENT_SLIDING_WINDOW_H_
