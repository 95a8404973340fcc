// VideoDb: the on-disk transportation surveillance video database.
//
// Layout under the database directory:
//   CATALOG           clip metadata index
//   clip_<id>.trk     tracked trajectories
//   clip_<id>.inc     incident annotations
//
// All writes are atomic (write-to-temp + rename); all files carry CRC32C
// envelopes and are verified on read.

#ifndef MIVID_DB_VIDEO_DB_H_
#define MIVID_DB_VIDEO_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/feature_store.h"
#include "db/frame_store.h"
#include "db/session_store.h"

namespace mivid {

/// Open options (RocksDB-style).
struct VideoDbOptions {
  bool create_if_missing = false;
  bool error_if_exists = false;
};

/// A clip's full stored payload.
struct ClipRecord {
  ClipInfo info;
  std::vector<Track> tracks;
  std::vector<IncidentRecord> incidents;
};

/// The database handle.
class VideoDb {
 public:
  /// Opens (or creates) a database rooted at `path`.
  static Result<std::unique_ptr<VideoDb>> Open(const std::string& path,
                                               const VideoDbOptions& options);

  /// Ingests a clip: metadata + trajectories + incident annotations.
  /// Assigns and returns the clip id. Persists immediately.
  Result<int> IngestClip(const ClipInfo& info, const std::vector<Track>& tracks,
                         const std::vector<IncidentRecord>& incidents);

  /// Loads a clip's full record.
  Result<ClipRecord> LoadClip(int clip_id) const;

  /// Catalog queries.
  std::vector<ClipInfo> ListClips() const { return catalog_.List(); }
  std::vector<std::string> Cameras() const { return catalog_.Cameras(); }
  std::vector<int> ClipsForCamera(const std::string& camera_id) const {
    return catalog_.ClipsForCamera(camera_id);
  }
  size_t clip_count() const { return catalog_.size(); }

  /// Stores the clip's raw video (RLE-compressed frames) for playback of
  /// retrieved windows. The clip must exist in the catalog.
  Status SaveClipVideo(int clip_id, const VideoClip& video);

  /// Loads a clip's stored video; NotFound when none was saved.
  Result<VideoClip> LoadClipVideo(int clip_id) const;

  /// True when clip_id has stored video.
  bool HasClipVideo(int clip_id) const;

  /// Persisted relevance-feedback sessions (resume across runs).
  Status SaveSession(const std::string& name, const SessionState& state);
  Result<SessionState> LoadSession(const std::string& name) const;
  std::vector<std::string> ListSessions() const;

  const std::string& path() const { return path_; }

 private:
  explicit VideoDb(std::string path) : path_(std::move(path)) {}

  Status PersistCatalog() const;
  std::string TracksPath(int clip_id) const;
  std::string IncidentsPath(int clip_id) const;
  std::string VideoPath(int clip_id) const;
  std::string SessionPath(const std::string& name) const;

  std::string path_;
  Catalog catalog_;
};

}  // namespace mivid

#endif  // MIVID_DB_VIDEO_DB_H_
