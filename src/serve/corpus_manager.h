// CorpusManager: epoch-snapshot store of per-camera retrieval corpora.
//
// The corpus of a live camera is no longer a load-once immutable blob:
// streaming ingestion (src/ingest/) keeps appending freshly cut clips
// while sessions are ranking. The manager reconciles the two with an
// epoch model (docs/ingest.md):
//
//  * Snapshot(camera) returns the camera's currently *published* epoch
//    — an immutable shared_ptr<const CorpusEpoch>. This is the one way
//    any consumer (serve, cluster, tools, tests) obtains a corpus.
//    Sessions pin the epoch they opened on, so their rankings stay
//    bit-identical no matter what ingest appends concurrently.
//  * Append(camera, clip) stages a cut clip's extraction into the
//    camera's mutable tail. Tail clips are invisible to Snapshot.
//  * Publish(camera) atomically swaps in a new immutable epoch =
//    published + tail, with bag ids continuing where the published
//    corpus ended (existing bag ids — and therefore session feedback
//    labels — never change meaning across epochs). The new epoch shares
//    the published epoch's parts and adds the tail's bags as one more,
//    so a publish costs the new clips, not a copy of the corpus. With no
//    staged tail, Publish is an idempotent no-op returning the current
//    epoch.
//
// The first Snapshot of a camera cold-loads epoch 1 with single-flight
// semantics: segments restored from the on-disk epoch manifest
// (db/epoch_manifest.h) when one matches, each as its own part, and the
// clips that arrived after the last publish extracted as one more part;
// full extraction is the fallback. Every
// publish appends a packed segment + rewrites the manifest
// (best-effort), so a restart resumes at the published epoch without
// re-extracting.

#ifndef MIVID_SERVE_CORPUS_MANAGER_H_
#define MIVID_SERVE_CORPUS_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "db/epoch_manifest.h"
#include "db/query_engine.h"

namespace mivid {

/// One immutable published corpus generation.
struct CorpusEpoch {
  std::string camera_id;
  uint64_t id = 0;  ///< monotonic per camera, first publish = 1
  /// The epoch's bags in id order, as immutable parts: the cold load's
  /// (one per restored segment, plus one for extracted clips), then one
  /// per publish that added bags. Consecutive epochs share all but the
  /// newest part.
  std::vector<std::shared_ptr<const CameraCorpus>> parts;
  std::chrono::steady_clock::time_point published_at;

  /// Bags over all parts.
  size_t bag_count() const;
  /// Each part's dataset, in order (what RetrievalSession::Extend takes).
  std::vector<const MilDataset*> datasets() const;
  /// Every bag as one dataset: a copy, which for a one-part epoch shares
  /// that part's packed corpus.
  MilDataset Dataset() const;
};

class CorpusManager {
 public:
  /// `db` must outlive the manager. `query` fixes the extraction
  /// parameters for every corpus (one manager = one feature space).
  /// A non-empty `snapshot_dir` enables on-disk epoch segments +
  /// manifests (cold loads mmap published segments zero-copy instead
  /// of re-extracting).
  CorpusManager(const VideoDb* db, QueryOptions query,
                std::string snapshot_dir = "")
      : db_(db),
        query_(std::move(query)),
        snapshot_dir_(std::move(snapshot_dir)) {}

  CorpusManager(const CorpusManager&) = delete;
  CorpusManager& operator=(const CorpusManager&) = delete;

  /// The camera's published epoch, cold-loading epoch 1 on first use.
  /// Blocks if another thread is already loading the same camera.
  Result<std::shared_ptr<const CorpusEpoch>> Snapshot(
      const std::string& camera_id);

  /// Stages one cut clip into the camera's mutable tail. The clip must
  /// already be persisted in the db (its id is used for dedup against
  /// the published epoch's coverage).
  Status Append(const std::string& camera_id, ClipExtraction clip);

  /// Publishes published + tail as a new immutable epoch and returns
  /// it. Serialized per manager; concurrent Snapshot()s keep returning
  /// the previous epoch until the swap.
  Result<std::shared_ptr<const CorpusEpoch>> Publish(
      const std::string& camera_id);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t snapshot_hits = 0;    ///< cold loads restored from segments
    uint64_t snapshot_writes = 0;  ///< segments written (cold + publish)
    uint64_t publishes = 0;        ///< epochs published (beyond cold load)
    size_t cached = 0;             ///< cameras with a published epoch
    size_t tail_clips = 0;         ///< staged clips awaiting publish
  };
  Stats stats() const;

  /// Camera ids with a published epoch.
  std::vector<std::string> cached_cameras() const;

  const QueryOptions& query() const { return query_; }

 private:
  struct CameraState {
    std::shared_ptr<const CorpusEpoch> published;
    bool loading = false;     ///< cold load in flight
    bool publishing = false;  ///< publish in flight
    std::set<int> included;   ///< clip ids covered by `published`
    std::vector<ClipExtraction> tail;  ///< staged clips, append order
    std::vector<EpochSegment> segments;  ///< on-disk backing (may lag)
  };

  /// Cold load (caller claimed `loading`). Returns the initial epoch
  /// plus the clip/segment bookkeeping to install.
  struct LoadedEpoch {
    std::shared_ptr<const CorpusEpoch> epoch;
    std::set<int> included;
    std::vector<EpochSegment> segments;
  };
  Result<LoadedEpoch> LoadPublished(const std::string& camera_id);

  /// Best-effort segment + manifest write; returns the segment entry
  /// on success.
  Result<EpochSegment> WriteSegment(const CameraCorpus& delta,
                                    const std::vector<int>& clip_ids,
                                    const std::string& camera_id,
                                    size_t segment_index, uint64_t epoch,
                                    std::vector<EpochSegment> manifest_segs);

  std::string FilePrefix(const std::string& camera_id) const;
  std::string ManifestPath(const std::string& camera_id) const;

  const VideoDb* db_;
  const QueryOptions query_;
  const std::string snapshot_dir_;
  mutable std::mutex mu_;
  std::condition_variable changed_;
  std::map<std::string, CameraState> states_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t snapshot_hits_ = 0;
  uint64_t snapshot_writes_ = 0;
  uint64_t publishes_ = 0;
};

}  // namespace mivid

#endif  // MIVID_SERVE_CORPUS_MANAGER_H_
