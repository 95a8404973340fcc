#include "db/catalog.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/string_util.h"
#include "db/codec.h"

namespace mivid {

namespace {
constexpr uint32_t kCatalogMagic = 0x4c544143u;  // "CATL"
constexpr uint32_t kCatalogVersion = 1;
}  // namespace

int Catalog::Add(ClipInfo info) {
  info.clip_id = next_id_++;
  const int id = info.clip_id;
  clips_[id] = std::move(info);
  return id;
}

Result<ClipInfo> Catalog::Get(int clip_id) const {
  auto it = clips_.find(clip_id);
  if (it == clips_.end()) {
    return Status::NotFound(StrFormat("no clip with id %d", clip_id));
  }
  return it->second;
}

Status Catalog::Remove(int clip_id) {
  if (clips_.erase(clip_id) == 0) {
    return Status::NotFound(StrFormat("no clip with id %d", clip_id));
  }
  return Status::OK();
}

std::vector<ClipInfo> Catalog::List() const {
  std::vector<ClipInfo> out;
  out.reserve(clips_.size());
  for (const auto& [id, info] : clips_) {
    (void)id;
    out.push_back(info);
  }
  return out;
}

std::vector<std::string> Catalog::Cameras() const {
  std::set<std::string> cams;
  for (const auto& [id, info] : clips_) {
    (void)id;
    cams.insert(info.camera_id);
  }
  return {cams.begin(), cams.end()};
}

std::vector<int> Catalog::ClipsForCamera(const std::string& camera_id) const {
  std::vector<int> out;
  for (const auto& [id, info] : clips_) {
    if (info.camera_id == camera_id) out.push_back(id);
  }
  return out;
}

std::string Catalog::Serialize() const {
  std::string body;
  PutFixed32(&body, kCatalogVersion);
  PutFixed32(&body, static_cast<uint32_t>(next_id_));
  PutFixed32(&body, static_cast<uint32_t>(clips_.size()));
  for (const auto& [id, info] : clips_) {
    PutFixed32(&body, static_cast<uint32_t>(id));
    PutLengthPrefixed(&body, info.camera_id);
    PutLengthPrefixed(&body, info.location);
    PutFixed64(&body, static_cast<uint64_t>(info.start_time_ms));
    PutDouble(&body, info.fps);
    PutFixed32(&body, static_cast<uint32_t>(info.width));
    PutFixed32(&body, static_cast<uint32_t>(info.height));
    PutFixed32(&body, static_cast<uint32_t>(info.total_frames));
    PutLengthPrefixed(&body, info.scenario);
  }
  std::string out;
  PutFixed32(&out, kCatalogMagic);
  PutFixed32(&out, Crc32c(body));
  out += body;
  return out;
}

Result<Catalog> Catalog::Deserialize(const std::string& bytes) {
  Decoder header(bytes);
  uint32_t magic, crc;
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&magic));
  if (magic != kCatalogMagic) {
    return Status::Corruption("not a catalog file (bad magic)");
  }
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&crc));
  const std::string_view body(bytes.data() + 8, bytes.size() - 8);
  if (Crc32c(body) != crc) {
    return Status::Corruption("catalog checksum mismatch");
  }

  Decoder dec(body);
  uint32_t version, next_id, count;
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kCatalogVersion) {
    return Status::NotSupported("unknown catalog version");
  }
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&next_id));
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&count));
  // Add() hands out next_id, so every stored id must lie below it, or the
  // next ingest would overwrite a stored clip and its files. Ids are ints.
  if (next_id > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Status::Corruption(
        StrFormat("catalog next_id %u is out of range", next_id));
  }

  Catalog catalog;
  catalog.next_id_ = static_cast<int>(next_id);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id, w, h, frames;
    uint64_t start;
    ClipInfo info;
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&id));
    MIVID_RETURN_IF_ERROR(dec.GetLengthPrefixed(&info.camera_id));
    MIVID_RETURN_IF_ERROR(dec.GetLengthPrefixed(&info.location));
    MIVID_RETURN_IF_ERROR(dec.GetFixed64(&start));
    MIVID_RETURN_IF_ERROR(dec.GetDouble(&info.fps));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&w));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&h));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&frames));
    MIVID_RETURN_IF_ERROR(dec.GetLengthPrefixed(&info.scenario));
    if (id >= next_id) {
      return Status::Corruption(StrFormat(
          "catalog clip id %u is not below next_id %u", id, next_id));
    }
    info.clip_id = static_cast<int>(id);
    info.start_time_ms = static_cast<int64_t>(start);
    info.width = static_cast<int>(w);
    info.height = static_cast<int>(h);
    info.total_frames = static_cast<int>(frames);
    if (!catalog.clips_.emplace(info.clip_id, std::move(info)).second) {
      return Status::Corruption(
          StrFormat("catalog holds clip id %u twice", id));
    }
  }
  return catalog;
}

}  // namespace mivid
