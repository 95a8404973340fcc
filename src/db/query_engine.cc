#include "db/query_engine.h"

#include "mil/dataset.h"

namespace mivid {

ClipExtraction ExtractClip(const ClipRecord& record,
                           const QueryOptions& options) {
  ClipExtraction clip;
  clip.clip_id = record.info.clip_id;
  clip.total_frames = record.info.total_frames;
  const std::vector<TrackFeatures> features =
      ComputeTrackFeatures(record.tracks, options.features);
  clip.scaler =
      FeatureScaler::Fit(features, options.features.include_velocity);
  clip.windows = ExtractWindows(features, record.info.total_frames,
                                options.features, options.windows);
  clip.incidents = record.incidents;
  return clip;
}

Status AppendClipBags(const ClipExtraction& clip, const QueryOptions& options,
                      CameraCorpus* corpus, int* next_bag_id) {
  // Oracle labels from the stored incident annotations.
  GroundTruth gt;
  gt.total_frames = clip.total_frames;
  gt.incidents = clip.incidents;
  FeedbackOracle oracle(&gt, options.relevant_types);

  for (const auto& vs : clip.windows) {
    const int id = *next_bag_id;
    MIVID_RETURN_IF_ERROR(corpus->dataset.AddBag(
        BuildBag(vs, id, clip.scaler, options.features.include_velocity)));
    ++*next_bag_id;
    corpus->bag_refs[id] =
        CorpusBagRef{clip.clip_id, vs.vs_id, vs.begin_frame, vs.end_frame};
    corpus->truth[id] = oracle.LabelFor(vs);
  }
  return Status::OK();
}

int NextBagId(const CameraCorpus& corpus) {
  const auto& bags = corpus.dataset.bags();
  return bags.empty() ? 0 : bags.back().id + 1;
}

SessionOptions SessionOptionsFor(const QueryOptions& options) {
  SessionOptions session = options.session;
  const size_t base_dim = options.features.include_velocity ? 4 : 3;
  session.mil.base_dim = base_dim;
  if (session.query_model.weights.empty()) {
    session.query_model = EventModel::Accident(base_dim);
  }
  return session;
}

Result<CameraCorpus> QueryEngine::BuildCorpus(
    const std::string& camera_id, const QueryOptions& options) const {
  const std::vector<int> clip_ids = db_->ClipsForCamera(camera_id);
  if (clip_ids.empty()) {
    return Status::NotFound("no clips for camera '" + camera_id + "'");
  }

  CameraCorpus corpus;
  corpus.camera_id = camera_id;
  int next_bag_id = 0;
  MIVID_RETURN_IF_ERROR(
      AppendClips(clip_ids, options, &corpus, &next_bag_id));
  return corpus;
}

Status QueryEngine::AppendClips(const std::vector<int>& clip_ids,
                                const QueryOptions& options,
                                CameraCorpus* corpus,
                                int* next_bag_id) const {
  for (int clip_id : clip_ids) {
    MIVID_ASSIGN_OR_RETURN(ClipRecord record, db_->LoadClip(clip_id));
    MIVID_RETURN_IF_ERROR(AppendClipBags(ExtractClip(record, options),
                                         options, corpus, next_bag_id));
  }
  return Status::OK();
}

}  // namespace mivid
