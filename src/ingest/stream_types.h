// Wire-facing types of the streaming ingestion pipeline (docs/ingest.md).
//
// A live camera source (trafficsim replay, the `ingest` NDJSON command,
// or a real tracker front end) delivers per-frame track observations.
// The pipeline segments the stream into clips, extracts window features
// incrementally, and appends the resulting bags to the camera's corpus
// tail (serve/corpus_manager.h) for the next epoch publish.

#ifndef MIVID_INGEST_STREAM_TYPES_H_
#define MIVID_INGEST_STREAM_TYPES_H_

#include <vector>

#include "db/query_engine.h"
#include "geometry/geometry.h"
#include "trafficsim/incident.h"

namespace mivid {

/// One tracked object seen in one frame.
struct TrackObservation {
  int track_id = -1;
  Point2 centroid;
  BBox bbox;
};

/// Everything a camera saw in one frame. Frames must arrive in strictly
/// ascending order within a clip.
struct FrameObservations {
  int frame = 0;  ///< clip-local frame index (>= 0)
  std::vector<TrackObservation> observations;
};

/// Streaming pipeline configuration. Feature/window parameters come
/// from the serving QueryOptions so streamed bags live in the same
/// feature space as batch-extracted ones.
struct IngestOptions {
  QueryOptions query;

  /// A track with no observation for this many frames is retired: its
  /// eligibility (>= 2 checkpoints) resolves and the commit watermark
  /// can pass it. Later observations for a retired id are dropped
  /// (counted in ingest/late_observations). Must exceed the source's
  /// worst observation gap for streamed == batch equality.
  int retire_after_frames = 25;

  /// Auto-cut the stream into clips of this many frames; <= 0 means
  /// clips end only on explicit Cut() (the `ingest` command's "cut").
  int clip_frames = 0;
};

}  // namespace mivid

#endif  // MIVID_INGEST_STREAM_TYPES_H_
