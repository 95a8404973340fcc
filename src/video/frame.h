// Greyscale video frame buffer.
//
// The simulator renders into Frames and the segmentation stack (background
// model + SPCPE) consumes them, mirroring the paper's raw-video front end.

#ifndef MIVID_VIDEO_FRAME_H_
#define MIVID_VIDEO_FRAME_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mivid {

/// A single 8-bit greyscale frame, row-major.
class Frame {
 public:
  Frame() = default;

  /// Creates a width x height frame filled with `fill`.
  Frame(int width, int height, uint8_t fill = 0)
      : width_(width), height_(height),
        pixels_(static_cast<size_t>(width) * static_cast<size_t>(height), fill) {
    assert(width >= 0 && height >= 0);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }
  size_t size() const { return pixels_.size(); }

  uint8_t& At(int x, int y) {
    assert(InBounds(x, y));
    return pixels_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
                   static_cast<size_t>(x)];
  }
  uint8_t At(int x, int y) const {
    assert(InBounds(x, y));
    return pixels_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
                   static_cast<size_t>(x)];
  }

  /// Bounds-checked read; returns `fallback` outside the frame.
  uint8_t Get(int x, int y, uint8_t fallback = 0) const {
    return InBounds(x, y) ? At(x, y) : fallback;
  }

  bool InBounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  /// Sets every pixel to `v`.
  void Fill(uint8_t v);

  /// Mean pixel intensity; 0 for an empty frame.
  double MeanIntensity() const;

  /// Per-pixel absolute difference |this - other| (equal sizes required).
  Frame AbsDiff(const Frame& other) const;

  const std::vector<uint8_t>& pixels() const { return pixels_; }
  std::vector<uint8_t>& pixels() { return pixels_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<uint8_t> pixels_;
};

/// A binary mask with the same layout as Frame (0 = background, 1 = fg).
using Mask = std::vector<uint8_t>;

/// The index of the first nonzero byte in mask[begin, end), or `end` when
/// there is none. Zero 8-byte words are skipped whole, so scanning a
/// sparse mask costs about one load per eight bytes.
size_t NextSet(const uint8_t* mask, size_t begin, size_t end);

}  // namespace mivid

#endif  // MIVID_VIDEO_FRAME_H_
