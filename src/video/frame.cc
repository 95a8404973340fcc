#include "video/frame.h"

#include <cstdlib>
#include <cstring>

namespace mivid {

void Frame::Fill(uint8_t v) {
  for (auto& p : pixels_) p = v;
}

double Frame::MeanIntensity() const {
  if (pixels_.empty()) return 0.0;
  double s = 0.0;
  for (uint8_t p : pixels_) s += p;
  return s / static_cast<double>(pixels_.size());
}

Frame Frame::AbsDiff(const Frame& other) const {
  assert(width_ == other.width_ && height_ == other.height_);
  Frame out(width_, height_);
  for (size_t i = 0; i < pixels_.size(); ++i) {
    out.pixels_[i] = static_cast<uint8_t>(
        std::abs(static_cast<int>(pixels_[i]) - static_cast<int>(other.pixels_[i])));
  }
  return out;
}

size_t NextSet(const uint8_t* mask, size_t begin, size_t end) {
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    uint64_t word;
    std::memcpy(&word, mask + i, sizeof(word));
    if (word != 0) break;
  }
  for (; i < end; ++i) {
    if (mask[i] != 0) return i;
  }
  return end;
}

}  // namespace mivid
