#include "db/epoch_manifest.h"

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

Result<EpochManifest> ReadEpochManifest(const std::string& path) {
  MIVID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
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
  manifest.camera_id = camera->string;
  manifest.epoch = static_cast<uint64_t>(epoch->number);

  for (const JsonValue& entry : segments->array) {
    const JsonValue* file = entry.Find("file");
    const JsonValue* clips = entry.Find("clips");
    const JsonValue* bags = entry.Find("bags");
    if (file == nullptr || !file->is_string() || clips == nullptr ||
        !clips->is_array()) {
      return Status::Corruption("epoch manifest segment malformed: " + path);
    }
    EpochSegment seg;
    seg.file = file->string;
    for (const JsonValue& clip : clips->array) {
      if (!clip.is_number()) {
        return Status::Corruption("epoch manifest clip id malformed: " +
                                  path);
      }
      seg.clip_ids.push_back(static_cast<int>(clip.number));
    }
    if (bags != nullptr && bags->is_number()) {
      seg.bag_count = static_cast<int>(bags->number);
    }
    manifest.segments.push_back(std::move(seg));
  }
  return manifest;
}

}  // namespace mivid
