#include "segment/segmenter.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

VehicleSegmenter::VehicleSegmenter(SegmenterOptions options)
    : options_(options), background_(options.background) {}

PendingSegmentation VehicleSegmenter::Ingest(Frame frame) {
  MIVID_TRACE_SPAN("segment/ingest");
  PendingSegmentation pending;
  double bg_mean = -1.0;
  pending.ready =
      background_.UpdateAndSubtract(frame, &pending.mask, &bg_mean);
  if (!pending.ready) return pending;
  if (options_.use_spcpe) pending.bg_mean = bg_mean;
  pending.frame = std::move(frame);
  return pending;
}

std::vector<Blob> VehicleSegmenter::Refine(const PendingSegmentation& pending,
                                           const SegmenterOptions& options) {
  if (!pending.ready) return {};
  MIVID_TRACE_SPAN("segment/refine");
  MIVID_SCOPED_TIMER("segment/frame_seconds");
  // Refine the candidate foreground: SPCPE separates true vehicle pixels
  // from background clutter that leaked through the threshold.
  Mask mask;
  if (options.use_spcpe) {
    mask = std::move(RunSpcpe(pending.frame, &pending.mask, pending.bg_mean,
                              options.spcpe)
                         .partition);
  } else {
    mask = pending.mask;
  }
  mask = CleanMask(std::move(mask), pending.frame.width(),
                   pending.frame.height(), options.clean_iterations);
  std::vector<Blob> blobs =
      ExtractBlobs(std::move(mask), pending.frame, options.blob);
  MIVID_METRIC_COUNT("segment/frames", 1);
  MIVID_METRIC_COUNT("segment/blobs", blobs.size());
  return blobs;
}

std::vector<Blob> VehicleSegmenter::Process(Frame frame) {
  return Refine(Ingest(std::move(frame)), options_);
}

}  // namespace mivid
