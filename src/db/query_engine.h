// QueryEngine: ties the database to the retrieval stack.
//
// Retrieval runs per camera (paper Sec. 6.2: clips from different cameras
// are not normalized against each other). The engine loads every clip of
// one camera, extracts features/windows per clip, merges them into one
// corpus with globally unique bag ids.
//
// BuildCorpus is the extraction primitive. Consumers (serve, cluster,
// tools, tests) obtain corpora exclusively through the epoch API of
// serve/corpus_manager.h — CorpusManager::Snapshot — which caches,
// snapshots, and extends corpora as streams append (docs/ingest.md).

#ifndef MIVID_DB_QUERY_ENGINE_H_
#define MIVID_DB_QUERY_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "db/video_db.h"
#include "eval/oracle.h"
#include "event/event_model.h"
#include "event/sliding_window.h"
#include "retrieval/session.h"

namespace mivid {

/// Query configuration.
struct QueryOptions {
  FeatureOptions features;
  WindowOptions windows;
  SessionOptions session;
  std::vector<IncidentType> relevant_types;  ///< empty = accident query
};

/// Identifies a bag within the merged multi-clip corpus.
struct CorpusBagRef {
  int clip_id = -1;
  int local_vs_id = -1;  ///< vs id within its clip
  int begin_frame = 0;
  int end_frame = 0;
};

/// A ready-to-run retrieval corpus for one camera.
struct CameraCorpus {
  std::string camera_id;
  MilDataset dataset;                    ///< global bag ids
  std::map<int, CorpusBagRef> bag_refs;  ///< global bag id -> provenance
  std::map<int, BagLabel> truth;         ///< oracle labels (from stored
                                         ///< incident annotations)
};

/// One clip's extraction output — everything needed to turn its windows
/// into corpus bags. Produced by the batch path (ComputeTrackFeatures +
/// FeatureScaler::Fit + ExtractWindows) and bit-identically by the
/// streaming path (ingest/clip_extractor.h).
struct ClipExtraction {
  int clip_id = -1;
  int total_frames = 0;
  std::vector<VideoSequence> windows;  ///< raw (unnormalized) features
  FeatureScaler scaler;                ///< whole-clip min/max
  std::vector<IncidentRecord> incidents;
};

/// Extracts one loaded clip with the batch pipeline.
ClipExtraction ExtractClip(const ClipRecord& record,
                           const QueryOptions& options);

/// Appends one clip's bags to `corpus`, assigning ids from
/// `*next_bag_id` (advanced past the new bags). The single bag-building
/// code path shared by batch corpus builds, streaming appends, and
/// epoch publishes — guaranteeing identical bags regardless of how a
/// clip reached the corpus. InvalidArgument (with the corpus keeping the
/// bags before the refused one) when the clip's instance dimension
/// differs from the corpus's.
Status AppendClipBags(const ClipExtraction& clip, const QueryOptions& options,
                      CameraCorpus* corpus, int* next_bag_id);

/// Bag id the next appended clip should start at (ids are dense).
int NextBagId(const CameraCorpus& corpus);

/// Session options derived from the query configuration: feature
/// dimension and the default accident query model.
SessionOptions SessionOptionsFor(const QueryOptions& options);

/// Database-backed query front end.
class QueryEngine {
 public:
  /// `db` must outlive the engine.
  explicit QueryEngine(const VideoDb* db) : db_(db) {}

  /// Builds the merged corpus for `camera_id` over all of its clips.
  Result<CameraCorpus> BuildCorpus(const std::string& camera_id,
                                   const QueryOptions& options) const;

  /// Extracts the given clips (in the given order) and appends their
  /// bags to `corpus` — the epoch catch-up path for clips not yet
  /// covered by restored segments or a published epoch.
  Status AppendClips(const std::vector<int>& clip_ids,
                     const QueryOptions& options, CameraCorpus* corpus,
                     int* next_bag_id) const;

 private:
  const VideoDb* db_;
};

}  // namespace mivid

#endif  // MIVID_DB_QUERY_ENGINE_H_
