#include "db/session_store.h"

#include "db/codec.h"

namespace mivid {

namespace {
constexpr uint32_t kSessionMagic = 0x53534553u;  // "SESS"
// v2 added the engine name after camera_id; v1 records (no engine field)
// still parse and default to the MIL one-class-SVM engine.
constexpr uint32_t kVersion = 2;
// Magic + CRC ahead of the envelope's body.
constexpr size_t kEnvelopeHeader = 8;
// Bytes per label entry: bag id + label byte.
constexpr size_t kLabelBytes = 5;
// Candidate records examined when deciding whether damage is a torn tail.
// Each costs at most one checksum over the journal, which bounds the work
// on any input.
constexpr int kMaxResyncCandidates = 64;

/// The little-endian Fixed32 at `p` (the caller checked 4 bytes remain).
uint32_t LoadFixed32(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

/// The envelope of the whole, intact record framed at `pos`, or an empty
/// view when the bytes there are not one.
std::string_view WholeRecordAt(std::string_view bytes, size_t pos) {
  if (bytes.size() - pos < 4) return {};
  const uint32_t length = LoadFixed32(bytes.data() + pos);
  if (length < kEnvelopeHeader || length > bytes.size() - pos - 4) return {};
  const std::string_view envelope = bytes.substr(pos + 4, length);
  if (LoadFixed32(envelope.data()) != kSessionMagic ||
      LoadFixed32(envelope.data() + 4) !=
          Crc32c(envelope.substr(kEnvelopeHeader))) {
    return {};
  }
  return envelope;
}

/// Whether a whole record starts anywhere after `pos`. Every record's
/// envelope opens with the magic, so only those offsets are candidates.
/// Gives up (reporting one) past the candidate budget, so pathological
/// input reads as Corruption rather than a torn tail.
bool WholeRecordAfter(std::string_view bytes, size_t pos) {
  const std::string_view magic("SESS", 4);
  int candidates = 0;
  for (size_t at = bytes.find(magic, pos + 5); at != std::string_view::npos;
       at = bytes.find(magic, at + 1)) {
    if (++candidates > kMaxResyncCandidates) return true;
    if (!WholeRecordAt(bytes, at - 4).empty()) return true;
  }
  return false;
}
}  // namespace

std::string SerializeSessionState(const SessionState& state) {
  std::string body;
  PutFixed32(&body, kVersion);
  PutLengthPrefixed(&body, state.camera_id);
  PutLengthPrefixed(&body, state.engine);
  PutFixed32(&body, static_cast<uint32_t>(state.round));
  PutFixed32(&body, static_cast<uint32_t>(state.labels.size()));
  for (const auto& [bag_id, label] : state.labels) {
    PutFixed32(&body, static_cast<uint32_t>(bag_id));
    body.push_back(static_cast<char>(label));
  }
  std::string out;
  PutFixed32(&out, kSessionMagic);
  PutFixed32(&out, Crc32c(body));
  out += body;
  return out;
}

Result<SessionState> DeserializeSessionState(std::string_view bytes) {
  Decoder header(bytes);
  uint32_t magic, crc;
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&magic));
  if (magic != kSessionMagic) return Status::Corruption("bad session magic");
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&crc));
  const std::string_view body = bytes.substr(kEnvelopeHeader);
  if (Crc32c(body) != crc) {
    return Status::Corruption("session checksum mismatch");
  }

  Decoder dec(body);
  uint32_t version, round, count;
  SessionState state;
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version < 1 || version > kVersion) {
    return Status::NotSupported("unknown version");
  }
  MIVID_RETURN_IF_ERROR(dec.GetLengthPrefixed(&state.camera_id));
  if (version >= 2) {
    MIVID_RETURN_IF_ERROR(dec.GetLengthPrefixed(&state.engine));
  }
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&round));
  state.round = static_cast<int>(round);
  MIVID_RETURN_IF_ERROR(dec.GetFixed32(&count));
  if (count > dec.remaining() / kLabelBytes) {
    return Status::Corruption("session label count exceeds the record");
  }
  state.labels.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t bag_id;
    uint8_t label;
    MIVID_RETURN_IF_ERROR(dec.GetFixed32(&bag_id));
    MIVID_RETURN_IF_ERROR(dec.GetByte(&label));
    if (label > static_cast<uint8_t>(BagLabel::kIrrelevant)) {
      return Status::Corruption("invalid bag label");
    }
    state.labels.emplace_back(static_cast<int>(bag_id),
                              static_cast<BagLabel>(label));
  }
  MIVID_RETURN_IF_ERROR(dec.ExpectDone());
  return state;
}

std::string FrameSessionRecord(const SessionState& state) {
  const std::string envelope = SerializeSessionState(state);
  std::string record;
  record.reserve(4 + envelope.size());
  PutFixed32(&record, static_cast<uint32_t>(envelope.size()));
  record += envelope;
  return record;
}

Result<SessionJournalScan> ScanSessionJournal(std::string_view bytes) {
  SessionJournalScan scan;
  // A journal opens with a record length; a pre-journal file opens with
  // the envelope magic, which as a length (~1.4 GB) no record reaches.
  if (bytes.size() >= 4 && LoadFixed32(bytes.data()) == kSessionMagic) {
    scan.last = bytes;
    scan.whole_bytes = bytes.size();
    scan.legacy = true;
    return scan;
  }
  size_t pos = 0;
  while (pos < bytes.size()) {
    const std::string_view envelope = WholeRecordAt(bytes, pos);
    if (envelope.empty()) {
      if (WholeRecordAfter(bytes, pos)) {
        return Status::Corruption("session journal damaged before its last "
                                  "record at byte " + std::to_string(pos));
      }
      break;  // torn tail
    }
    scan.last = envelope;
    pos += 4 + envelope.size();
    scan.whole_bytes = pos;
  }
  return scan;
}

Result<SessionState> ReadSessionJournal(std::string_view bytes) {
  MIVID_ASSIGN_OR_RETURN(SessionJournalScan scan, ScanSessionJournal(bytes));
  if (scan.last.empty()) {
    return Status::NotFound("session journal holds no whole record");
  }
  return DeserializeSessionState(scan.last);
}

}  // namespace mivid
