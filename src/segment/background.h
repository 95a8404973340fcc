// Background learning and subtraction (paper Sec. 3.1).
//
// The paper couples SPCPE with "a background learning and subtraction
// method" to isolate vehicle pixels. We learn a per-pixel running-average
// background with slow adaptation and threshold the absolute difference.

#ifndef MIVID_SEGMENT_BACKGROUND_H_
#define MIVID_SEGMENT_BACKGROUND_H_

#include <vector>

#include "video/frame.h"

namespace mivid {

/// Background estimation algorithm.
enum class BackgroundMethod : uint8_t {
  /// Selective exponential moving average (default): adapts only where
  /// the pixel still looks like background, so stopped vehicles persist.
  kSelectiveMean = 0,
  /// Temporal median over a sliding sample buffer: robust to transients,
  /// the classic choice for fixed surveillance cameras.
  kTemporalMedian = 1,
};

/// Parameters of the background model.
struct BackgroundOptions {
  BackgroundMethod method = BackgroundMethod::kSelectiveMean;
  double learning_rate = 0.02;   ///< EMA adaptation per frame
  double diff_threshold = 18.0;  ///< |frame - bg| above this is foreground
  int warmup_frames = 10;        ///< frames averaged before subtracting
  int median_samples = 9;        ///< buffer size for kTemporalMedian
  int median_sample_stride = 7;  ///< frames between buffered samples
};

/// Per-pixel exponential-moving-average background model.
class BackgroundModel {
 public:
  explicit BackgroundModel(BackgroundOptions options = {});

  /// Updates the model with `frame`. During warmup the frame is averaged
  /// in with full weight.
  void Update(const Frame& frame);

  /// True once warmup_frames frames have been observed.
  bool Ready() const { return frames_seen_ >= options_.warmup_frames; }

  int frames_seen() const { return frames_seen_; }

  /// Foreground mask for `frame` (1 = moving object). Requires Ready().
  /// Foreground pixels are *not* absorbed into the background (standard
  /// selective update), so stopped vehicles stay segmented for a while.
  Mask Subtract(const Frame& frame) const;

  /// The current background estimate quantized to a frame.
  Frame BackgroundFrame() const;

  /// Update(frame); then, once Ready(), Subtract(frame) into `*mask` and
  /// BackgroundFrame().MeanIntensity() into `*bg_mean` — bit-identical to
  /// the three calls, in one pass over the pixels and without the
  /// background frame. Returns Ready(); the outputs are untouched while
  /// the model warms up.
  bool UpdateAndSubtract(const Frame& frame, Mask* mask, double* bg_mean);

 private:
  /// Sizes the model from the first frame; checks later frames match.
  void Adopt(const Frame& frame);
  void UpdateSelectiveMean(const Frame& frame);
  void UpdateTemporalMedian(const Frame& frame);

  BackgroundOptions options_;
  int width_ = 0;
  int height_ = 0;
  int frames_seen_ = 0;
  std::vector<double> mean_;  ///< current background estimate (both modes)
  std::vector<std::vector<uint8_t>> median_buffer_;  ///< kTemporalMedian
};

/// Morphological cleanup of a binary mask: removes isolated pixels and
/// fills single-pixel holes (3x3 majority filter, `iterations` passes).
/// Filters `mask` in place and returns it; pass an rvalue to avoid a copy.
Mask CleanMask(Mask mask, int width, int height, int iterations = 1);

}  // namespace mivid

#endif  // MIVID_SEGMENT_BACKGROUND_H_
