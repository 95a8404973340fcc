#include "db/feature_store.h"

#include <string>

#include "db/codec.h"

namespace mivid {

namespace {
constexpr uint32_t kTracksMagic = 0x534b5254u;     // "TRKS"
constexpr uint32_t kIncidentsMagic = 0x53434e49u;  // "INCS"
constexpr uint32_t kVersion = 1;

// Encoded bytes of each record's fixed part.
constexpr size_t kTrackBytes = 8;      // id, point count
constexpr size_t kPointBytes = 52;     // frame, centroid, bbox
constexpr size_t kIncidentBytes = 16;  // type, begin, end, vehicle count
constexpr size_t kVehicleIdBytes = 4;

std::string Envelope(uint32_t magic, const std::string& body) {
  std::string out;
  PutFixed32(&out, magic);
  PutFixed32(&out, Crc32c(body));
  out += body;
  return out;
}

Result<std::string_view> OpenEnvelope(uint32_t magic,
                                      const std::string& bytes) {
  Decoder header(bytes);
  uint32_t got_magic, crc;
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&got_magic));
  if (got_magic != magic) return Status::Corruption("bad magic");
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&crc));
  const std::string_view body(bytes.data() + 8, bytes.size() - 8);
  if (Crc32c(body) != crc) return Status::Corruption("checksum mismatch");
  return body;
}

/// Refuses a record count that the bytes left cannot hold at `min_bytes`
/// per record, so no allocation is sized from a count alone.
Status CheckCount(uint32_t count, size_t min_bytes, const Decoder& dec,
                  const char* what) {
  if (count > dec.remaining() / min_bytes) {
    return Status::Corruption(std::string(what) + " count " +
                              std::to_string(count) + " exceeds the record");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeTracks(const std::vector<Track>& tracks) {
  std::string body;
  PutFixed32(&body, kVersion);
  PutFixed32(&body, static_cast<uint32_t>(tracks.size()));
  for (const auto& t : tracks) {
    PutFixed32(&body, static_cast<uint32_t>(t.id));
    PutFixed32(&body, static_cast<uint32_t>(t.points.size()));
    for (const auto& p : t.points) {
      PutFixed32(&body, static_cast<uint32_t>(p.frame));
      PutDouble(&body, p.centroid.x);
      PutDouble(&body, p.centroid.y);
      PutDouble(&body, p.bbox.min_x);
      PutDouble(&body, p.bbox.min_y);
      PutDouble(&body, p.bbox.max_x);
      PutDouble(&body, p.bbox.max_y);
    }
  }
  return Envelope(kTracksMagic, body);
}

Result<std::vector<Track>> DeserializeTracks(const std::string& bytes) {
  MIVID_ASSIGN_OR_RETURN(std::string_view body,
                         OpenEnvelope(kTracksMagic, bytes));
  Decoder dec(body);
  uint32_t version, count;
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kVersion) return Status::NotSupported("unknown version");
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&count));
  MIVID_RETURN_IF_ERROR(CheckCount(count, kTrackBytes, dec, "track"));
  std::vector<Track> tracks(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id, npoints;
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&id));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&npoints));
    MIVID_RETURN_IF_ERROR(CheckCount(npoints, kPointBytes, dec, "point"));
    tracks[i].id = static_cast<int>(id);
    tracks[i].points.resize(npoints);
    for (uint32_t j = 0; j < npoints; ++j) {
      TrackPoint& p = tracks[i].points[j];
      uint32_t frame;
      MIVID_RETURN_IF_ERROR(dec.GetFixed32(&frame));
      p.frame = static_cast<int>(frame);
      MIVID_RETURN_IF_ERROR(dec.GetDouble(&p.centroid.x));
      MIVID_RETURN_IF_ERROR(dec.GetDouble(&p.centroid.y));
      MIVID_RETURN_IF_ERROR(dec.GetDouble(&p.bbox.min_x));
      MIVID_RETURN_IF_ERROR(dec.GetDouble(&p.bbox.min_y));
      MIVID_RETURN_IF_ERROR(dec.GetDouble(&p.bbox.max_x));
      MIVID_RETURN_IF_ERROR(dec.GetDouble(&p.bbox.max_y));
    }
  }
  MIVID_RETURN_IF_ERROR(dec.ExpectDone());
  return tracks;
}

std::string SerializeIncidents(const std::vector<IncidentRecord>& incidents) {
  std::string body;
  PutFixed32(&body, kVersion);
  PutFixed32(&body, static_cast<uint32_t>(incidents.size()));
  for (const auto& rec : incidents) {
    PutFixed32(&body, static_cast<uint32_t>(rec.type));
    PutFixed32(&body, static_cast<uint32_t>(rec.begin_frame));
    PutFixed32(&body, static_cast<uint32_t>(rec.end_frame));
    PutFixed32(&body, static_cast<uint32_t>(rec.vehicle_ids.size()));
    for (int id : rec.vehicle_ids) {
      PutFixed32(&body, static_cast<uint32_t>(id));
    }
  }
  return Envelope(kIncidentsMagic, body);
}

Result<std::vector<IncidentRecord>> DeserializeIncidents(
    const std::string& bytes) {
  MIVID_ASSIGN_OR_RETURN(std::string_view body,
                         OpenEnvelope(kIncidentsMagic, bytes));
  Decoder dec(body);
  uint32_t version, count;
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kVersion) return Status::NotSupported("unknown version");
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&count));
  MIVID_RETURN_IF_ERROR(CheckCount(count, kIncidentBytes, dec, "incident"));
  std::vector<IncidentRecord> incidents(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t type, begin, end, nveh;
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&type));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&begin));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&end));
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&nveh));
    if (type > static_cast<uint32_t>(IncidentType::kSpeeding)) {
      return Status::Corruption("invalid incident type");
    }
    MIVID_RETURN_IF_ERROR(CheckCount(nveh, kVehicleIdBytes, dec, "vehicle"));
    incidents[i].type = static_cast<IncidentType>(type);
    incidents[i].begin_frame = static_cast<int>(begin);
    incidents[i].end_frame = static_cast<int>(end);
    incidents[i].vehicle_ids.resize(nveh);
    for (uint32_t j = 0; j < nveh; ++j) {
      uint32_t id;
      MIVID_RETURN_IF_ERROR(dec.GetFixed32(&id));
      incidents[i].vehicle_ids[j] = static_cast<int>(id);
    }
  }
  MIVID_RETURN_IF_ERROR(dec.ExpectDone());
  return incidents;
}

}  // namespace mivid
