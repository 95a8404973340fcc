// SessionStore: persistence of relevance-feedback sessions.
//
// The paper's framework "progressively gathers training samples and
// customizes the retrieval process" per user; persisting the session's
// accumulated bag labels lets a user stop and later resume exactly where
// they left off (complementing the persisted SVM model, which only
// captures the last trained state).
//
// A session's file is an append-only journal: each saved round appends
// one record, a Fixed32 length followed by the full snapshot envelope
// SerializeSessionState writes. Resume reads the last whole record, so a
// write cut short by a crash costs at most that round. The format and
// its durability policy are in docs/file_formats.md.

#ifndef MIVID_DB_SESSION_STORE_H_
#define MIVID_DB_SESSION_STORE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mil/bag.h"

namespace mivid {

/// A resumable snapshot of one retrieval session.
struct SessionState {
  std::string camera_id;
  std::string engine = "milrf";  ///< retrieval-engine registry key
  int round = 0;
  std::vector<std::pair<int, BagLabel>> labels;  ///< bag id -> feedback
};

/// Serializes a session snapshot (checksummed envelope).
std::string SerializeSessionState(const SessionState& state);

/// Parses a snapshot written by SerializeSessionState.
Result<SessionState> DeserializeSessionState(std::string_view bytes);

/// One journal record for `state`: a Fixed32 length, then the
/// SerializeSessionState envelope.
std::string FrameSessionRecord(const SessionState& state);

/// The whole records at the front of a session journal.
struct SessionJournalScan {
  /// The last whole record's envelope (a view into the scanned bytes);
  /// empty when the journal holds no whole record.
  std::string_view last;
  /// Length of the prefix the whole records fill; anything after it is a
  /// torn tail.
  size_t whole_bytes = 0;
  /// A single-envelope file from before the journal (v1/v2 snapshots):
  /// `last` is the whole file and nothing may be appended to it.
  bool legacy = false;
};

/// Walks a journal's records. A damaged last record (cut at any byte, or
/// with a bad length, magic or checksum) is a torn tail: the scan stops
/// before it. Damage followed by a whole record is Corruption.
Result<SessionJournalScan> ScanSessionJournal(std::string_view bytes);

/// The state in a journal's last whole record. NotFound when the journal
/// holds none (empty, or only a torn first record).
Result<SessionState> ReadSessionJournal(std::string_view bytes);

}  // namespace mivid

#endif  // MIVID_DB_SESSION_STORE_H_
