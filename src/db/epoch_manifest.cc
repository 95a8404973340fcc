#include "db/epoch_manifest.h"

#include <optional>

#include "common/file_io.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace mivid {

std::vector<int> EpochManifest::AllClips() const {
  std::vector<int> out;
  for (const auto& seg : segments) {
    out.insert(out.end(), seg.clip_ids.begin(), seg.clip_ids.end());
  }
  return out;
}

Status WriteEpochManifest(const EpochManifest& manifest,
                          const std::string& path) {
  std::string json = "{\"camera\":\"" + JsonEscape(manifest.camera_id) +
                     "\",\"epoch\":" + std::to_string(manifest.epoch) +
                     ",\"segments\":[";
  for (size_t i = 0; i < manifest.segments.size(); ++i) {
    const EpochSegment& seg = manifest.segments[i];
    if (i) json += ",";
    json += "{\"file\":\"" + JsonEscape(seg.file) + "\",\"clips\":[";
    for (size_t c = 0; c < seg.clip_ids.size(); ++c) {
      if (c) json += ",";
      json += std::to_string(seg.clip_ids[c]);
    }
    json += "],\"bags\":" + std::to_string(seg.bag_count) + "}";
  }
  json += "]}";
  return WriteFileAtomic(path, json);
}

namespace {

/// A segment file must be one name inside the snapshot directory: not
/// empty, not "." or "..", and without '/' or NUL, so snapshot_dir + "/"
/// + file cannot leave the directory. ".." inside a longer name is a
/// plain name: the writer emits "cam..1.seg0.mivpack" for camera "cam..1".
bool ValidSegmentFile(const std::string& file) {
  return !file.empty() && file != "." && file != ".." &&
         file.find_first_of(std::string_view("/\0", 2)) == std::string::npos;
}

}  // namespace

Result<EpochManifest> ParseEpochManifest(std::string_view bytes,
                                         const std::string& path) {
  MIVID_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(bytes));
  if (!doc.is_object()) {
    return Status::Corruption("epoch manifest is not a JSON object: " + path);
  }

  EpochManifest manifest;
  const JsonValue* camera = doc.Find("camera");
  const JsonValue* epoch = doc.Find("epoch");
  const JsonValue* segments = doc.Find("segments");
  if (camera == nullptr || !camera->is_string() || epoch == nullptr ||
      !epoch->is_number() || segments == nullptr || !segments->is_array()) {
    return Status::Corruption("epoch manifest missing fields: " + path);
  }
  const std::optional<uint64_t> epoch_id = epoch->Int<uint64_t>();
  if (!epoch_id) {
    return Status::Corruption("epoch manifest epoch malformed: " + path);
  }
  manifest.camera_id = camera->string;
  manifest.epoch = *epoch_id;

  for (const JsonValue& entry : segments->array) {
    const JsonValue* file = entry.Find("file");
    const JsonValue* clips = entry.Find("clips");
    const JsonValue* bags = entry.Find("bags");
    if (file == nullptr || !file->is_string() || clips == nullptr ||
        !clips->is_array()) {
      return Status::Corruption("epoch manifest segment malformed: " + path);
    }
    if (!ValidSegmentFile(file->string)) {
      return Status::Corruption("epoch manifest segment file '" +
                                file->string +
                                "' is not a name in the snapshot dir: " +
                                path);
    }
    EpochSegment seg;
    seg.file = file->string;
    for (const JsonValue& clip : clips->array) {
      const std::optional<int> clip_id = clip.Int<int>();
      if (!clip_id) {
        return Status::Corruption("epoch manifest clip id malformed: " +
                                  path);
      }
      seg.clip_ids.push_back(*clip_id);
    }
    if (bags != nullptr) {
      const std::optional<int> bag_count = bags->Int<int>();
      if (!bag_count) {
        return Status::Corruption("epoch manifest bag count malformed: " +
                                  path);
      }
      seg.bag_count = *bag_count;
    }
    manifest.segments.push_back(std::move(seg));
  }
  return manifest;
}

Result<EpochManifest> ReadEpochManifest(const std::string& path) {
  MIVID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return ParseEpochManifest(bytes, path);
}

}  // namespace mivid
