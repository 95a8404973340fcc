#include "ingest/camera_ingestor.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

/// Materialized windows the activity gauges look back over.
constexpr size_t kActivityWindows = 64;

}  // namespace

RollingStats::RollingStats(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void RollingStats::Observe(double value) {
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  values_[oldest_] = value;
  oldest_ = (oldest_ + 1) % capacity_;
}

double RollingStats::Min() const {
  return empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double RollingStats::Max() const {
  return empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

double RollingStats::Mean() const {
  if (empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / values_.size();
}

CameraIngestor::CameraIngestor(std::string camera_id, VideoDb* db,
                               CorpusManager* corpora,
                               const IngestOptions& options)
    : camera_id_(std::move(camera_id)),
      db_(db),
      corpora_(corpora),
      options_(options),
      builder_(std::max(1, options.retire_after_frames)),
      extractor_(options.query.features, options.query.windows),
      activity_(kActivityWindows) {}

Result<CameraIngestor::FrameResult> CameraIngestor::Observe(
    const FrameObservations& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frame.frame <= last_stream_frame_) {
    return Status::InvalidArgument(
        "ingest frames must be strictly ascending: frame " +
        std::to_string(frame.frame) + " after " +
        std::to_string(last_stream_frame_));
  }

  FrameResult result;
  // Auto-cut every clip_frames frames; a sparse stream may cross
  // several (empty) clip boundaries in one step.
  while (options_.clip_frames > 0 &&
         frame.frame - clip_begin_ >= options_.clip_frames) {
    MIVID_ASSIGN_OR_RETURN(CutResult cut, CutLocked(options_.clip_frames));
    (void)cut;
    ++result.clips_cut;
  }

  const int local = frame.frame - clip_begin_;
  extractor_.Observe(local, frame.observations);
  LiveTrackBuilder::ObserveResult observed =
      builder_.Observe(local, frame.observations);
  for (int id : observed.retired) extractor_.Retire(id);

  last_stream_frame_ = frame.frame;
  ++stats_.frames;
  stats_.observations += static_cast<int64_t>(frame.observations.size());
  stats_.late_observations += observed.late_observations;
  stats_.stream_frame = frame.frame;
  result.late_observations = observed.late_observations;

  MIVID_METRIC_COUNT("ingest/frames", 1);
  MIVID_METRIC_COUNT("ingest/observations", frame.observations.size());
  if (observed.late_observations > 0) {
    MIVID_METRIC_COUNT("ingest/late_observations",
                       observed.late_observations);
  }
  MIVID_METRIC_GAUGE_SET("ingest/lag_frames", extractor_.lag_frames());
  return result;
}

Status CameraIngestor::AddIncident(IncidentType type, int begin_frame,
                                   int end_frame,
                                   std::vector<int> vehicle_ids) {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_frame > end_frame || begin_frame < 0) {
    return Status::InvalidArgument("invalid incident frame range");
  }
  if (begin_frame < clip_begin_) {
    MIVID_METRIC_COUNT("ingest/late_incidents", 1);
    return Status::FailedPrecondition(
        "incident begins at frame " + std::to_string(begin_frame) +
        " but the stream already cut through frame " +
        std::to_string(clip_begin_));
  }
  IncidentRecord incident;
  incident.type = type;
  incident.begin_frame = begin_frame;
  incident.end_frame = end_frame;
  incident.vehicle_ids = std::move(vehicle_ids);
  pending_incidents_.push_back(std::move(incident));
  return Status::OK();
}

Result<CameraIngestor::CutResult> CameraIngestor::Cut() {
  std::lock_guard<std::mutex> lock(mu_);
  const int observed = last_stream_frame_ - clip_begin_ + 1;
  if (observed <= 0) return CutResult{};  // nothing streamed: no clip
  return CutLocked(observed);
}

Result<CameraIngestor::CutResult> CameraIngestor::CutLocked(
    int total_frames) {
  MIVID_TRACE_SPAN("ingest/cut");
  std::vector<Track> tracks = builder_.Finish();
  IncrementalClipExtractor::Output extracted =
      extractor_.Finish(total_frames);

  // Incidents covering this clip, rebased to clip-local frames. An
  // annotation spanning the cut contributes to both clips.
  const int clip_end = clip_begin_ + total_frames;  // exclusive
  std::vector<IncidentRecord> clip_incidents;
  std::vector<IncidentRecord> still_pending;
  for (const IncidentRecord& incident : pending_incidents_) {
    if (incident.begin_frame < clip_end &&
        incident.end_frame >= clip_begin_) {
      IncidentRecord local = incident;
      local.begin_frame = std::max(0, incident.begin_frame - clip_begin_);
      local.end_frame =
          std::min(total_frames - 1, incident.end_frame - clip_begin_);
      clip_incidents.push_back(std::move(local));
    }
    if (incident.end_frame >= clip_end) still_pending.push_back(incident);
  }

  CutResult result;
  result.total_frames = total_frames;

  if (tracks.empty() && clip_incidents.empty()) {
    // Nothing happened: skip the empty clip entirely.
    pending_incidents_ = std::move(still_pending);
    clip_begin_ += total_frames;
    return result;
  }

  ClipInfo info;
  info.camera_id = camera_id_;
  info.total_frames = total_frames;
  info.scenario = "stream";
  MIVID_ASSIGN_OR_RETURN(int clip_id,
                         db_->IngestClip(info, tracks, clip_incidents));

  ClipExtraction clip;
  clip.clip_id = clip_id;
  clip.total_frames = total_frames;
  clip.windows = std::move(extracted.windows);
  clip.scaler = std::move(extracted.scaler);
  clip.incidents = std::move(clip_incidents);
  const size_t bags = clip.windows.size();
  for (const VideoSequence& vs : clip.windows) {
    activity_.Observe(static_cast<double>(vs.ts.size()));
  }
  MIVID_RETURN_IF_ERROR(corpora_->Append(camera_id_, std::move(clip)));

  pending_incidents_ = std::move(still_pending);
  clip_begin_ += total_frames;
  ++stats_.clips;
  stats_.bags += static_cast<int64_t>(bags);
  result.clip_id = clip_id;
  result.bags_staged = bags;

  MIVID_METRIC_COUNT("ingest/clips_cut", 1);
  MIVID_METRIC_COUNT("ingest/bags_staged", bags);
  MIVID_METRIC_GAUGE_SET("ingest/window_ts_mean", activity_.Mean());
  MIVID_METRIC_GAUGE_SET("ingest/window_ts_max", activity_.Max());
  return result;
}

CameraIngestor::Stats CameraIngestor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.lag_frames = extractor_.lag_frames();
  s.live_tracks = builder_.live_count();
  s.window_ts_mean = activity_.Mean();
  s.window_ts_max = activity_.Max();
  return s;
}

}  // namespace mivid
