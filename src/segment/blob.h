// Connected-component extraction: binary mask -> vehicle blobs with MBRs.

#ifndef MIVID_SEGMENT_BLOB_H_
#define MIVID_SEGMENT_BLOB_H_

#include <vector>

#include "geometry/geometry.h"
#include "video/frame.h"

namespace mivid {

/// A connected foreground region: the paper's "vehicle segment".
struct Blob {
  BBox mbr;          ///< minimal bounding rectangle
  Point2 centroid;   ///< pixel-mass centroid (the tracked point)
  int area = 0;      ///< pixel count
  double mean_intensity = 0.0;  ///< average source intensity inside the blob
};

/// Blob filtering thresholds.
struct BlobOptions {
  int min_area = 25;     ///< reject specks smaller than this
  int max_area = 1 << 20;
  bool eight_connected = true;
};

/// Labels connected components of `mask` and returns one Blob per
/// component that passes the filters, in the raster order of each
/// component's first pixel. `source` provides intensities for
/// mean_intensity (pass the original frame). The mask is consumed as the
/// visited marks; pass an rvalue to avoid a copy.
std::vector<Blob> ExtractBlobs(Mask mask, const Frame& source,
                               const BlobOptions& options = {});

}  // namespace mivid

#endif  // MIVID_SEGMENT_BLOB_H_
