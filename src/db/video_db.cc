#include "db/video_db.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/fault.h"
#include "common/file_io.h"
#include "common/string_util.h"

namespace mivid {

namespace {
constexpr char kCatalogFile[] = "CATALOG";
// A session journal is compacted to its last record once appending would
// leave it larger than this many times that record. Records are full
// snapshots and grow with the labels, so a short session never compacts.
constexpr size_t kCompactionFactor = 4;
}  // namespace

Result<std::unique_ptr<VideoDb>> VideoDb::Open(const std::string& path,
                                               const VideoDbOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool exists = fs::exists(path, ec);
  const std::string catalog_path = path + "/" + kCatalogFile;
  const bool has_catalog = fs::exists(catalog_path, ec);

  if (has_catalog && options.error_if_exists) {
    return Status::AlreadyExists("database already exists at " + path);
  }
  if (!has_catalog && !options.create_if_missing) {
    return Status::NotFound("no database at " + path +
                            " (set create_if_missing to create one)");
  }

  std::unique_ptr<VideoDb> db(new VideoDb(path));
  if (!has_catalog) {
    if (!exists && !fs::create_directories(path, ec) && ec) {
      return Status::IOError("cannot create directory " + path + ": " +
                             ec.message());
    }
    MIVID_RETURN_IF_ERROR(db->PersistCatalog());
  } else {
    MIVID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(catalog_path));
    MIVID_ASSIGN_OR_RETURN(db->catalog_, Catalog::Deserialize(bytes));
  }
  return db;
}

Status VideoDb::PersistCatalog() const {
  return WriteFileAtomic(path_ + "/" + kCatalogFile, catalog_.Serialize());
}

std::string VideoDb::TracksPath(int clip_id) const {
  return StrFormat("%s/clip_%d.trk", path_.c_str(), clip_id);
}

std::string VideoDb::IncidentsPath(int clip_id) const {
  return StrFormat("%s/clip_%d.inc", path_.c_str(), clip_id);
}

std::string VideoDb::VideoPath(int clip_id) const {
  return StrFormat("%s/clip_%d.vid", path_.c_str(), clip_id);
}

Status VideoDb::SaveClipVideo(int clip_id, const VideoClip& video) {
  MIVID_RETURN_IF_ERROR(catalog_.Get(clip_id).status());
  return WriteFileAtomic(VideoPath(clip_id), SerializeFrames(video));
}

Result<VideoClip> VideoDb::LoadClipVideo(int clip_id) const {
  Result<std::string> bytes = ReadFileToString(VideoPath(clip_id));
  if (!bytes.ok()) {
    return Status::NotFound(
        StrFormat("no stored video for clip %d", clip_id));
  }
  return DeserializeFrames(bytes.value());
}

bool VideoDb::HasClipVideo(int clip_id) const {
  std::error_code ec;
  return std::filesystem::exists(VideoPath(clip_id), ec);
}

Result<int> VideoDb::IngestClip(const ClipInfo& info,
                                const std::vector<Track>& tracks,
                                const std::vector<IncidentRecord>& incidents) {
  const int id = catalog_.Add(info);
  Status s = WriteFileAtomic(TracksPath(id), SerializeTracks(tracks));
  if (s.ok()) {
    s = WriteFileAtomic(IncidentsPath(id), SerializeIncidents(incidents));
  }
  if (s.ok()) s = PersistCatalog();
  if (!s.ok()) {
    // Roll back the catalog entry so the db stays consistent.
    (void)catalog_.Remove(id);
    std::remove(TracksPath(id).c_str());
    std::remove(IncidentsPath(id).c_str());
    return s;
  }
  return id;
}

Result<ClipRecord> VideoDb::LoadClip(int clip_id) const {
  ClipRecord record;
  MIVID_ASSIGN_OR_RETURN(record.info, catalog_.Get(clip_id));
  {
    MIVID_ASSIGN_OR_RETURN(std::string bytes,
                           ReadFileToString(TracksPath(clip_id)));
    MIVID_ASSIGN_OR_RETURN(record.tracks, DeserializeTracks(bytes));
  }
  {
    MIVID_ASSIGN_OR_RETURN(std::string bytes,
                           ReadFileToString(IncidentsPath(clip_id)));
    MIVID_ASSIGN_OR_RETURN(record.incidents, DeserializeIncidents(bytes));
  }
  return record;
}

std::string VideoDb::SessionPath(const std::string& name) const {
  return path_ + "/session_" + name + ".rfs";
}

namespace {

/// Reads all of the open file `fd` into `out`.
Status ReadAll(int fd, const std::string& path, std::string* out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return Status::IOError("cannot stat " + path);
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t n = ::pread(fd, out->data() + got, out->size() - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IOError("cannot read " + path);
    if (n == 0) break;  // truncated since the fstat
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  return Status::OK();
}

/// Appends `bytes` to the O_APPEND file `fd`.
Status WriteAll(int fd, const std::string& path, const std::string& bytes) {
  size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("short append to " + path);
    put += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status VideoDb::SaveSession(const std::string& name,
                            const SessionState& state) {
  const std::string path = SessionPath(name);
  const std::string record = FrameSessionRecord(state);
  // Opened per append: replicated workers journal one session over a
  // shared database in turn, so no handle may hold a stale view of it.
  const int fd =
      ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError("cannot open " + path + " for append");
  std::string journal;
  Status read = ReadAll(fd, path, &journal);
  if (!read.ok()) {
    ::close(fd);
    return read;
  }
  // Append only onto whole records. A torn tail (a writer that died
  // mid-append), a damaged or pre-journal file, and a journal that would
  // outgrow kCompactionFactor times this record are all rewritten as
  // this one record through the atomic temp + rename path instead.
  const Result<SessionJournalScan> scan = ScanSessionJournal(journal);
  const bool appendable = scan.ok() && !scan.value().legacy &&
                          scan.value().whole_bytes == journal.size();
  if (!appendable ||
      journal.size() + record.size() > kCompactionFactor * record.size()) {
    ::close(fd);
    return WriteFileAtomic(path, record);
  }
  // journal.write.torn simulates a crash mid-append: half the record
  // reaches the journal and the process dies. The reader resumes at the
  // previous whole record; a failover replays it and the coordinator
  // retries the lost round.
  if (MIVID_FAULT("journal.write.torn")) {
    (void)WriteAll(fd, path, record.substr(0, record.size() / 2));
    _exit(134);
  }
  Status appended = WriteAll(fd, path, record);
  if (::close(fd) != 0 && appended.ok()) {
    appended = Status::IOError("cannot close " + path);
  }
  return appended;
}

Result<SessionState> VideoDb::LoadSession(const std::string& name) const {
  Result<std::string> bytes = ReadFileToString(SessionPath(name));
  if (!bytes.ok()) {
    return Status::NotFound("no session named '" + name + "'");
  }
  return ReadSessionJournal(bytes.value());
}

std::vector<std::string> VideoDb::ListSessions() const {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    const std::string file = entry.path().filename().string();
    if (StartsWith(file, "session_") && EndsWith(file, ".rfs")) {
      names.push_back(file.substr(8, file.size() - 8 - 4));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mivid
