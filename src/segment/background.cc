#include "segment/background.h"

#include <algorithm>

#include "common/logging.h"
#include "linalg/background_kernel.h"
#include "linalg/simd.h"

namespace mivid {

using background_kernel::IsForeground;
using background_kernel::Quantize;
using background_kernel::SelectiveEma;
using background_kernel::WarmupMean;

BackgroundModel::BackgroundModel(BackgroundOptions options)
    : options_(options) {}

void BackgroundModel::Adopt(const Frame& frame) {
  if (frames_seen_ == 0) {
    width_ = frame.width();
    height_ = frame.height();
    mean_.assign(frame.size(), 0.0);
  }
  MIVID_CHECK(frame.width() == width_ && frame.height() == height_)
      << "frame size changed mid-stream";
}

void BackgroundModel::Update(const Frame& frame) {
  Adopt(frame);
  switch (options_.method) {
    case BackgroundMethod::kSelectiveMean:
      UpdateSelectiveMean(frame);
      break;
    case BackgroundMethod::kTemporalMedian:
      UpdateTemporalMedian(frame);
      break;
  }
  ++frames_seen_;
}

void BackgroundModel::UpdateSelectiveMean(const Frame& frame) {
  const std::vector<uint8_t>& px = frame.pixels();
  if (frames_seen_ < options_.warmup_frames) {
    const double n = static_cast<double>(frames_seen_);
    for (size_t i = 0; i < mean_.size(); ++i) {
      mean_[i] = WarmupMean(mean_[i], px[i], n);
    }
  } else {
    for (size_t i = 0; i < mean_.size(); ++i) {
      mean_[i] = SelectiveEma(mean_[i], px[i], options_.learning_rate,
                              options_.diff_threshold);
    }
  }
}

void BackgroundModel::UpdateTemporalMedian(const Frame& frame) {
  // Buffer spaced samples; the background is the per-pixel median. Early
  // on (before the buffer spreads out) every frame is admitted so the
  // model is usable right after warmup.
  const bool due = frames_seen_ < options_.warmup_frames ||
                   frames_seen_ % std::max(1, options_.median_sample_stride) == 0;
  if (due) {
    median_buffer_.push_back(frame.pixels());
    if (static_cast<int>(median_buffer_.size()) >
        std::max(3, options_.median_samples)) {
      median_buffer_.erase(median_buffer_.begin());
    }
    // Recompute the per-pixel median estimate.
    std::vector<uint8_t> column(median_buffer_.size());
    for (size_t i = 0; i < mean_.size(); ++i) {
      for (size_t s = 0; s < median_buffer_.size(); ++s) {
        column[s] = median_buffer_[s][i];
      }
      std::nth_element(column.begin(), column.begin() + column.size() / 2,
                       column.end());
      mean_[i] = column[column.size() / 2];
    }
  }
}

Mask BackgroundModel::Subtract(const Frame& frame) const {
  Mask mask(frame.size(), 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = IsForeground(frame.pixels()[i], mean_[i],
                           options_.diff_threshold);
  }
  return mask;
}

bool BackgroundModel::UpdateAndSubtract(const Frame& frame, Mask* mask,
                                        double* bg_mean) {
  if (options_.method == BackgroundMethod::kTemporalMedian ||
      frames_seen_ + 1 < options_.warmup_frames) {
    // The median refresh works on a whole sample buffer, not per pixel,
    // and costs far more than the two passes after it.
    Update(frame);
    if (!Ready()) return false;
    *mask = Subtract(frame);
    *bg_mean = BackgroundFrame().MeanIntensity();
    return true;
  }
  // Selective mean: one fused pass. The frame that completes warmup is
  // subtracted against the running mean that includes it.
  Adopt(frame);
  mask->resize(mean_.size());
  const uint64_t sum = SimdOps().background_pass(
      frame.pixels().data(), mean_.size(),
      frames_seen_ < options_.warmup_frames,
      static_cast<double>(frames_seen_), options_.learning_rate,
      options_.diff_threshold, mean_.data(), mask->data());
  // Equal to BackgroundFrame().MeanIntensity(): its double sum of bytes
  // is exact too.
  *bg_mean = mean_.empty() ? 0.0
                           : static_cast<double>(sum) /
                                 static_cast<double>(mean_.size());
  ++frames_seen_;
  return true;
}

Frame BackgroundModel::BackgroundFrame() const {
  Frame f(width_, height_);
  for (size_t i = 0; i < mean_.size(); ++i) f.pixels()[i] = Quantize(mean_[i]);
  return f;
}

Mask CleanMask(Mask mask, int width, int height, int iterations) {
  if (iterations <= 0) return mask;
  const size_t w = static_cast<size_t>(std::max(width, 0));
  const size_t rows = static_cast<size_t>(std::max(height, 0));
  const size_t n = std::min(mask.size(), rows * w);
  std::fill(mask.begin() + n, mask.end(), 0);  // bytes past the last row
  // The filter runs in place, top to bottom: `above` and `centre` keep
  // the source rows y-1 and y, which row y-1's and row y's output
  // overwrite; row y+1 is still the source. Rows and columns outside the
  // mask count as zeros, as the 9-neighbour definition does.
  std::vector<uint8_t> above(w), centre(w);
  const std::vector<uint8_t> zero_row(w, 0);
  // Column sums of the three source rows at cols[x + 1].
  std::vector<int> cols(w + 2, 0);
  // row_set(y): source row y has a nonzero byte (rows past the end have
  // none). It is read when row y becomes the row below, before row y is
  // overwritten. An output row whose three source rows are all zero is
  // zero, as the row already is, so it is skipped.
  const auto row_set = [&](size_t y) {
    return y < rows && NextSet(mask.data() + y * w, 0, w) < w;
  };
  for (int it = 0; it < iterations; ++it) {
    bool above_set = false;
    bool centre_set = row_set(0);
    for (size_t y = 0; y < rows; ++y) {
      uint8_t* row = mask.data() + y * w;
      const bool below_set = row_set(y + 1);
      if (above_set || centre_set || below_set) {
        std::copy(row, row + w, centre.begin());
        const uint8_t* a = above_set ? above.data() : zero_row.data();
        const uint8_t* b = below_set ? row + w : zero_row.data();
        for (size_t x = 0; x < w; ++x) cols[x + 1] = a[x] + centre[x] + b[x];
        for (size_t x = 0; x < w; ++x) {
          // Majority of the 3x3 neighborhood (center included).
          row[x] = cols[x] + cols[x + 1] + cols[x + 2] >= 5 ? 1 : 0;
        }
        above.swap(centre);
      }
      above_set = centre_set;
      centre_set = below_set;
    }
  }
  return mask;
}

}  // namespace mivid
