// VehicleSegmenter: the complete per-frame vision front end.
//
// Pipeline per frame (paper Sec. 3.1): background learning/subtraction ->
// SPCPE refinement of the foreground -> morphological cleanup -> connected
// components -> vehicle blobs (MBR + centroid).

#ifndef MIVID_SEGMENT_SEGMENTER_H_
#define MIVID_SEGMENT_SEGMENTER_H_

#include <vector>

#include "segment/background.h"
#include "segment/blob.h"
#include "segment/spcpe.h"
#include "video/frame.h"

namespace mivid {

/// Options for the full segmentation stack.
struct SegmenterOptions {
  BackgroundOptions background;
  SpcpeOptions spcpe;
  BlobOptions blob;
  int clean_iterations = 1;
  bool use_spcpe = true;  ///< disable to use the raw subtraction mask
};

/// The sequential front half of segmenting one frame: the frame itself,
/// its background-subtraction mask, and the background statistics SPCPE
/// needs. Produced by VehicleSegmenter::Ingest (which owns the stateful
/// background model); consumed by the pure Refine step.
struct PendingSegmentation {
  Frame frame;
  Mask mask;
  double bg_mean = -1.0;  ///< background mean intensity (SPCPE hint)
  bool ready = false;     ///< false during background warmup
};

/// Stateful frame-by-frame vehicle segmenter.
///
/// Process() == Refine(Ingest(frame)). Ingest carries the
/// frame-order-dependent background update (one fused pass over the
/// frame); Refine carries the SPCPE/cleanup/blob extraction, a pure
/// function of one PendingSegmentation. The halves are separate so each
/// can be timed and tested on its own (the background mask Ingest
/// produces is pinned by the vision golden tests).
class VehicleSegmenter {
 public:
  explicit VehicleSegmenter(SegmenterOptions options = {});

  /// Processes the next frame; returns the detected vehicle blobs
  /// (empty during background warmup).
  std::vector<Blob> Process(Frame frame);

  /// Advances the background model with `frame` and captures everything
  /// the stateless Refine step needs.
  PendingSegmentation Ingest(Frame frame);

  /// Pure second half: SPCPE refinement, morphological cleanup, blob
  /// extraction. Thread-safe; no segmenter state is read or written.
  static std::vector<Blob> Refine(const PendingSegmentation& pending,
                                  const SegmenterOptions& options);

  const SegmenterOptions& options() const { return options_; }

  /// True once the background model has warmed up.
  bool Ready() const { return background_.Ready(); }

  const BackgroundModel& background_model() const { return background_; }

 private:
  SegmenterOptions options_;
  BackgroundModel background_;
};

}  // namespace mivid

#endif  // MIVID_SEGMENT_SEGMENTER_H_
