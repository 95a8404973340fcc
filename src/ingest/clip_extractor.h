// IncrementalClipExtractor: the streaming driver of the extraction
// pipeline. It computes checkpoints with the same kernel, slices windows
// with the same slicer and folds the scaler with the same min/max as the
// batch driver (event/features.h + event/sliding_window.h); what it adds
// is deciding when each grid frame's inputs are final.
//
// The batch pipeline has two places where a checkpoint's value depends
// on the *future* of the clip:
//
//  1. Eligibility. ComputeTrackFeatures drops tracks with fewer than
//     two checkpoints — including from the mdist co-visibility index —
//     so whether a track "counts" at frame g may only be decided by
//     observations after g.
//  2. Normalization. FeatureScaler::Fit spans the whole clip, so a
//     bag's normalized features are only final at clip end.
//
// The extractor solves (1) with a commit watermark: grid frame g
// commits only once every track observed at g has resolved — reached
// its second checkpoint (eligible forever) or been retired (ineligible
// forever if it had fewer than two). Commit lag is therefore bounded
// by sampling_rate + retire_after_frames. Windows materialize when
// their last grid frame commits, carrying raw (unnormalized) features.
// (2) is solved by keeping features raw until the clip is cut: every
// committed checkpoint is folded into a running per-dimension min/max
// (FeatureScaler::Add), and the ingestor normalizes bags at cut with
// the final scaler.
//
// tests/ingest_test.cc asserts the streamed windows and scaler equal
// the batch extraction bitwise on simulated scenarios.

#ifndef MIVID_INGEST_CLIP_EXTRACTOR_H_
#define MIVID_INGEST_CLIP_EXTRACTOR_H_

#include <cstddef>
#include <map>
#include <vector>

#include "event/sliding_window.h"
#include "ingest/stream_types.h"

namespace mivid {

class IncrementalClipExtractor {
 public:
  IncrementalClipExtractor(const FeatureOptions& features,
                           const WindowOptions& windows);

  /// Ingests one frame (strictly ascending; one call per frame, carrying
  /// every observation of that frame). Non-grid frames advance the
  /// clock; grid frames add checkpoints.
  void Observe(int frame, const std::vector<TrackObservation>& obs);

  /// Declares that `track_id` will never be observed again (builder
  /// retirement or end of clip). Resolves the track's eligibility.
  void Retire(int track_id);

  struct Output {
    std::vector<VideoSequence> windows;  ///< raw features, batch order
    FeatureScaler scaler;                ///< whole-clip min/max
  };

  /// Finishes the clip: retires every live track, commits through the
  /// clip's last grid frame and returns the extraction. `total_frames`
  /// must cover every observed frame. Resets the extractor.
  Output Finish(int total_frames);

  /// Highest grid frame committed so far (-1 before the first).
  int watermark() const { return next_grid_ - rate_; }

  /// Frames between the stream head and the committed watermark — the
  /// ingest lag induced by eligibility resolution.
  int lag_frames() const {
    return current_frame_ < 0 ? 0 : current_frame_ - watermark();
  }

  size_t windows_materialized() const { return windows_.size(); }

 private:
  struct TrackState {
    std::vector<TrackPoint> checkpoints;  ///< raw grid observations
    TrackFeatures features;               ///< committed checkpoints
    bool retired = false;
  };

  bool Resolved(const TrackState& s) const {
    return s.retired || s.checkpoints.size() >= 2;
  }

  /// Commits every grid frame whose tracks are all resolved.
  void AdvanceWatermark();
  /// Computes every eligible track's checkpoint at `g` and slices the
  /// window ending at `g`, if any.
  void CommitGrid(int g);

  const FeatureOptions features_;
  const int rate_;
  const WindowSlicer slicer_;

  int current_frame_ = -1;
  int next_grid_ = 0;
  std::map<int, TrackState> tracks_;
  /// Track ids with a checkpoint at each not-yet-committed grid frame.
  std::map<int, std::vector<int>> tracks_at_grid_;

  std::vector<VideoSequence> windows_;
  FeatureScaler scaler_;
};

}  // namespace mivid

#endif  // MIVID_INGEST_CLIP_EXTRACTOR_H_
