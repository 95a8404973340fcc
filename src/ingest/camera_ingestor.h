// CameraIngestor: one live camera's streaming pipeline.
//
// Accepts per-frame observations (the `ingest` NDJSON command,
// trafficsim replay, or a tracker front end), segments the stream into
// clips, and on every cut:
//   1. persists the finished clip to the VideoDb (so a batch rebuild of
//      the camera sees exactly what the stream saw),
//   2. stages the incrementally extracted windows into the camera's
//      corpus tail (CorpusManager::Append) for the next epoch publish.
//
// Incident annotations arrive separately (AddIncident, absolute stream
// frames) and are clipped to the covering clip(s) at cut time — they
// become the stored ground truth the feedback oracle labels bags with.
//
// Thread-safe; one ingestor per camera, streams must deliver frames in
// strictly ascending order.

#ifndef MIVID_INGEST_CAMERA_INGESTOR_H_
#define MIVID_INGEST_CAMERA_INGESTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "db/video_db.h"
#include "ingest/clip_extractor.h"
#include "ingest/track_builder.h"
#include "serve/corpus_manager.h"

namespace mivid {

/// Min/max/mean over the last `capacity` observations of one scalar
/// series: the per-camera activity profile (TS count per materialized
/// window) behind the ingest gauges. A fixed ring; the aggregates are
/// recomputed on read, and the mean is exact for integer-valued series.
class RollingStats {
 public:
  explicit RollingStats(size_t capacity);

  void Observe(double value);

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Min() const;   ///< 0 when empty
  double Max() const;   ///< 0 when empty
  double Mean() const;  ///< 0 when empty

 private:
  size_t capacity_;
  std::vector<double> values_;
  size_t oldest_ = 0;  ///< slot the next observation overwrites once full
};

class CameraIngestor {
 public:
  /// `db` and `corpora` must outlive the ingestor.
  CameraIngestor(std::string camera_id, VideoDb* db, CorpusManager* corpora,
                 const IngestOptions& options);

  struct FrameResult {
    int clips_cut = 0;          ///< auto-cuts triggered by this frame
    int late_observations = 0;  ///< observations for retired ids, dropped
  };

  /// Ingests one frame (absolute stream frame, strictly ascending).
  Result<FrameResult> Observe(const FrameObservations& frame);

  /// Annotates an incident over absolute stream frames (inclusive).
  /// Must arrive before the covering clip is cut.
  Status AddIncident(IncidentType type, int begin_frame, int end_frame,
                     std::vector<int> vehicle_ids);

  struct CutResult {
    int clip_id = -1;  ///< -1 when the clip was empty (nothing persisted)
    size_t bags_staged = 0;
    int total_frames = 0;
  };

  /// Cuts the current clip at the stream head: persists it, stages its
  /// bags, and starts the next clip. Empty clips are skipped.
  Result<CutResult> Cut();

  struct Stats {
    int64_t frames = 0;
    int64_t observations = 0;
    int64_t late_observations = 0;
    int64_t clips = 0;
    int64_t bags = 0;
    int stream_frame = -1;    ///< last absolute frame seen
    int lag_frames = 0;       ///< stream head - extractor commit watermark
    size_t live_tracks = 0;
    double window_ts_mean = 0.0;  ///< rolling TS-per-bag activity profile
    double window_ts_max = 0.0;
  };
  Stats stats() const;

  const std::string& camera_id() const { return camera_id_; }

 private:
  /// Cuts a clip spanning `total_frames` local frames. mu_ held.
  Result<CutResult> CutLocked(int total_frames);

  const std::string camera_id_;
  VideoDb* const db_;
  CorpusManager* const corpora_;
  const IngestOptions options_;

  mutable std::mutex mu_;
  LiveTrackBuilder builder_;
  IncrementalClipExtractor extractor_;
  int clip_begin_ = 0;        ///< absolute frame where the open clip starts
  int last_stream_frame_ = -1;
  std::vector<IncidentRecord> pending_incidents_;  ///< absolute frames
  RollingStats activity_;
  Stats stats_;
};

}  // namespace mivid

#endif  // MIVID_INGEST_CAMERA_INGESTOR_H_
