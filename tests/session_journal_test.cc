// Tests for the append-only session journal (db/session_store,
// VideoDb::SaveSession/LoadSession): torn tails, damage before the tail,
// pre-journal v1/v2 files, compaction, replicated writers, the
// journal.write.torn fault, and a seeded mutation fuzzer over real
// journals.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "db/codec.h"
#include "db/video_db.h"
#include "fuzz_mutate.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The state after `round` rounds of 20 labels each, as the served
/// sessions journal it.
SessionState RoundState(int round, const std::string& camera = "cam-3") {
  SessionState state;
  state.camera_id = camera;
  state.engine = "milrf";
  state.round = round;
  for (int i = 0; i < 20 * round; ++i) {
    state.labels.emplace_back(7 * i + 1, i % 3 == 0 ? BagLabel::kRelevant
                                                    : BagLabel::kIrrelevant);
  }
  return state;
}

/// A journal of rounds 1..n, and where its last record starts.
std::string JournalOf(int n, size_t* last_begin = nullptr) {
  std::string journal;
  for (int r = 1; r <= n; ++r) {
    if (last_begin != nullptr) *last_begin = journal.size();
    journal += FrameSessionRecord(RoundState(r));
  }
  return journal;
}

void ExpectState(const Result<SessionState>& got, const SessionState& want) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->camera_id, want.camera_id);
  EXPECT_EQ(got->engine, want.engine);
  EXPECT_EQ(got->round, want.round);
  EXPECT_EQ(got->labels, want.labels);
}

std::unique_ptr<VideoDb> OpenDb(const std::string& path) {
  VideoDbOptions options;
  options.create_if_missing = true;
  Result<std::unique_ptr<VideoDb>> db = VideoDb::Open(path, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

std::string SessionFile(const VideoDb& db, const std::string& name) {
  return db.path() + "/session_" + name + ".rfs";
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
}

std::string ReadRaw(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : std::string();
}

// Pre-journal snapshot files, byte for byte as the single-envelope
// writer left them (camera "cam-2", engine "cknn", round 3, bags 4 and
// 17; and a v1 file: camera "cam-1", round 2, bag 9, no engine field).
const std::string kLegacyV2(
    "\x53\x45\x53\x53\x08\x8a\xe1\x93\x02\x00\x00\x00\x05\x00\x00\x00\x63\x61"
    "\x6d\x2d\x32\x04\x00\x00\x00\x63\x6b\x6e\x6e\x03\x00\x00\x00\x02\x00\x00"
    "\x00\x04\x00\x00\x00\x01\x11\x00\x00\x00\x02",
    47);
const std::string kLegacyV1(
    "\x53\x45\x53\x53\x26\xba\x1f\x33\x01\x00\x00\x00\x05\x00\x00\x00\x63\x61"
    "\x6d\x2d\x31\x02\x00\x00\x00\x01\x00\x00\x00\x09\x00\x00\x00\x01",
    34);

TEST(SessionJournalTest, LastWholeRecordWins) {
  const std::string journal = JournalOf(3);
  ExpectState(ReadSessionJournal(journal), RoundState(3));
  Result<SessionJournalScan> scan = ScanSessionJournal(journal);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->whole_bytes, journal.size());
  EXPECT_FALSE(scan->legacy);
  // The last record's envelope is exactly the single-envelope snapshot.
  EXPECT_EQ(std::string(scan->last), SerializeSessionState(RoundState(3)));
}

TEST(SessionJournalTest, LastRecordCutAtEveryByteResumesAtThePrevious) {
  size_t last_begin = 0;
  const std::string journal = JournalOf(3, &last_begin);
  for (size_t cut = last_begin; cut < journal.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const std::string torn = journal.substr(0, cut);
    ExpectState(ReadSessionJournal(torn), RoundState(2));
    Result<SessionJournalScan> scan = ScanSessionJournal(torn);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->whole_bytes, last_begin);
  }
}

TEST(SessionJournalTest, FlippedByteInLastRecordResumesAtThePrevious) {
  size_t last_begin = 0;
  const std::string journal = JournalOf(3, &last_begin);
  for (size_t at = last_begin; at < journal.size(); ++at) {
    for (const int mask : {0x01, 0x80, 0xff}) {
      SCOPED_TRACE("byte " + std::to_string(at) + " ^ " + std::to_string(mask));
      std::string flipped = journal;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      ExpectState(ReadSessionJournal(flipped), RoundState(2));
    }
  }
}

TEST(SessionJournalTest, DamageBeforeTheTailIsCorruption) {
  size_t last_begin = 0;
  const std::string journal = JournalOf(3, &last_begin);
  for (size_t at = 0; at < last_begin; ++at) {
    SCOPED_TRACE("byte " + std::to_string(at));
    std::string flipped = journal;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    EXPECT_TRUE(ReadSessionJournal(flipped).status().IsCorruption());
  }
  // A torn record followed by a whole one (an append that never checked
  // its predecessor) is damage before the tail too.
  const std::string first = FrameSessionRecord(RoundState(1));
  const std::string spliced = first.substr(0, first.size() / 2) +
                              FrameSessionRecord(RoundState(2));
  EXPECT_TRUE(ReadSessionJournal(spliced).status().IsCorruption());
}

TEST(SessionJournalTest, EmptyOrTornFirstRecordReadsAsNotFound) {
  EXPECT_TRUE(ReadSessionJournal("").status().IsNotFound());
  const std::string first = FrameSessionRecord(RoundState(1));
  for (size_t cut = 1; cut < first.size(); ++cut) {
    EXPECT_TRUE(
        ReadSessionJournal(first.substr(0, cut)).status().IsNotFound())
        << "cut at " << cut;
  }

  // Through the database: an empty file opens fresh, and the next save
  // rewrites it as one whole record.
  TempDir dir("mivid_journal_empty");
  auto db = OpenDb(dir.path());
  WriteRaw(SessionFile(*db, "s"), "");
  EXPECT_TRUE(db->LoadSession("s").status().IsNotFound());
  ASSERT_TRUE(db->SaveSession("s", RoundState(1)).ok());
  ExpectState(db->LoadSession("s"), RoundState(1));
  EXPECT_EQ(ReadRaw(SessionFile(*db, "s")), first);
}

TEST(SessionJournalTest, ReadsLegacyV1AndV2Files) {
  Result<SessionState> v2 = ReadSessionJournal(kLegacyV2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->camera_id, "cam-2");
  EXPECT_EQ(v2->engine, "cknn");
  EXPECT_EQ(v2->round, 3);
  EXPECT_EQ(v2->labels, (std::vector<std::pair<int, BagLabel>>{
                            {4, BagLabel::kRelevant},
                            {17, BagLabel::kIrrelevant}}));
  Result<SessionState> v1 = ReadSessionJournal(kLegacyV1);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->camera_id, "cam-1");
  EXPECT_EQ(v1->engine, "milrf");  // v1 default
  EXPECT_EQ(v1->round, 2);
  EXPECT_EQ(v1->labels,
            (std::vector<std::pair<int, BagLabel>>{{9, BagLabel::kRelevant}}));

  // A damaged legacy file is a clean error, never a torn tail.
  std::string damaged = kLegacyV2;
  damaged.back() = static_cast<char>(damaged.back() ^ 0x01);
  EXPECT_TRUE(ReadSessionJournal(damaged).status().IsCorruption());

  // Through the database: the legacy file loads, and the next save turns
  // it into a journal rather than appending to the old envelope.
  TempDir dir("mivid_journal_legacy");
  auto db = OpenDb(dir.path());
  WriteRaw(SessionFile(*db, "old"), kLegacyV2);
  ExpectState(db->LoadSession("old"), v2.value());
  SessionState next = v2.value();
  next.round = 4;
  ASSERT_TRUE(db->SaveSession("old", next).ok());
  ExpectState(db->LoadSession("old"), next);
  EXPECT_EQ(ReadRaw(SessionFile(*db, "old")), FrameSessionRecord(next));
}

TEST(SessionJournalTest, AppendsOneRecordPerRoundAndCompactsKeepingTheLast) {
  TempDir dir("mivid_journal_compact");
  auto db = OpenDb(dir.path());
  const std::string file = SessionFile(*db, "c");
  // Four rounds and the close that repeats the fourth: each is one more
  // record, none compacts.
  std::string expected;
  for (int r : {1, 2, 3, 4, 4}) {
    ASSERT_TRUE(db->SaveSession("c", RoundState(r)).ok());
    expected += FrameSessionRecord(RoundState(r));
    EXPECT_EQ(ReadRaw(file), expected) << "round " << r;
  }
  // A long session stays within four times its last record and always
  // reads back its last state.
  bool compacted = false;
  for (int r = 5; r <= 40; ++r) {
    ASSERT_TRUE(db->SaveSession("c", RoundState(r)).ok());
    const std::string record = FrameSessionRecord(RoundState(r));
    const std::string bytes = ReadRaw(file);
    EXPECT_LE(bytes.size(), 4 * record.size()) << "round " << r;
    compacted = compacted || bytes == record;
    ExpectState(db->LoadSession("c"), RoundState(r));
  }
  EXPECT_TRUE(compacted);
  // Identical records (saves with no new labels) compact too.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->SaveSession("c", RoundState(40)).ok());
    EXPECT_LE(ReadRaw(file).size(),
              4 * FrameSessionRecord(RoundState(40)).size());
  }
  ExpectState(db->LoadSession("c"), RoundState(40));
}

TEST(SessionJournalTest, TwoHandlesAppendToOneSessionInTurn) {
  // Replicated workers share one database directory and journal the same
  // session file, each mirroring the round after the other.
  TempDir dir("mivid_journal_replicas");
  auto a = OpenDb(dir.path());
  auto b = OpenDb(dir.path());
  for (int r = 1; r <= 12; ++r) {
    ASSERT_TRUE(a->SaveSession("shared", RoundState(r)).ok());
    ExpectState(b->LoadSession("shared"), RoundState(r));
    ASSERT_TRUE(b->SaveSession("shared", RoundState(r)).ok());
    ExpectState(a->LoadSession("shared"), RoundState(r));
  }
  // One handle dies mid-append; the other's next round lands on whole
  // records only.
  const std::string file = SessionFile(*a, "shared");
  const std::string half = FrameSessionRecord(RoundState(13));
  WriteRaw(file, ReadRaw(file) + half.substr(0, half.size() / 2));
  ExpectState(b->LoadSession("shared"), RoundState(12));
  ASSERT_TRUE(b->SaveSession("shared", RoundState(13)).ok());
  ExpectState(a->LoadSession("shared"), RoundState(13));
  EXPECT_EQ(ReadRaw(file), FrameSessionRecord(RoundState(13)));
}

TEST(SessionJournalDeathTest, TornWriteFaultLeavesThePreviousRoundReadable) {
  TempDir dir("mivid_journal_torn");
  auto db = OpenDb(dir.path());
  ASSERT_TRUE(db->SaveSession("t", RoundState(1)).ok());
  EXPECT_EXIT(
      {
        SetFaultSpecForTest("journal.write.torn=1");
        (void)db->SaveSession("t", RoundState(2));
      },
      testing::ExitedWithCode(134), "");
  const std::string bytes = ReadRaw(SessionFile(*db, "t"));
  const std::string first = FrameSessionRecord(RoundState(1));
  EXPECT_EQ(bytes.size(),
            first.size() + FrameSessionRecord(RoundState(2)).size() / 2);
  ExpectState(db->LoadSession("t"), RoundState(1));
  // The retried round compacts the torn tail away.
  ASSERT_TRUE(db->SaveSession("t", RoundState(2)).ok());
  ExpectState(db->LoadSession("t"), RoundState(2));
}

TEST(SessionJournalTest, LabelCountBeyondTheRecordIsRefused) {
  // A checksummed envelope whose label count exceeds its bytes must not
  // size an allocation from the count.
  std::string body;
  PutFixed32(&body, 2);
  PutLengthPrefixed(&body, "cam");
  PutLengthPrefixed(&body, "milrf");
  PutFixed32(&body, 1);
  PutFixed32(&body, 0xfffffff0u);
  std::string envelope;
  PutFixed32(&envelope, 0x53534553u);
  PutFixed32(&envelope, Crc32c(body));
  envelope += body;
  EXPECT_TRUE(DeserializeSessionState(envelope).status().IsCorruption());
  std::string record;
  PutFixed32(&record, static_cast<uint32_t>(envelope.size()));
  record += envelope;
  EXPECT_TRUE(ReadSessionJournal(record).status().IsCorruption());
}

using test::Mutate;

TEST(SessionJournalFuzzTest, MutatedJournalsReadOkOrCleanError) {
  // Seed corpus: journals the database itself wrote (short and compacted
  // sessions, two cameras and engines), plus the legacy snapshots.
  TempDir dir("mivid_journal_fuzz");
  auto db = OpenDb(dir.path());
  std::vector<std::string> corpus = {kLegacyV1, kLegacyV2};
  for (int rounds : {1, 2, 4, 9}) {
    const std::string name = "f" + std::to_string(rounds);
    for (int r = 1; r <= rounds; ++r) {
      SessionState state = RoundState(r, rounds % 2 ? "cam-a" : "cam-b");
      if (rounds == 9) state.engine = "cknn";
      ASSERT_TRUE(db->SaveSession(name, state).ok());
    }
    corpus.push_back(ReadRaw(SessionFile(*db, name)));
  }

  Rng rng(20260418);
  int ok = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string& base = corpus[rng.UniformInt(0, corpus.size() - 1)];
    const std::string& other = corpus[rng.UniformInt(0, corpus.size() - 1)];
    std::string input = Mutate(base, other, &rng);
    if (rng.UniformInt(0, 3) == 0) input = Mutate(input, other, &rng);

    Result<SessionJournalScan> scan = ScanSessionJournal(input);
    if (scan.ok()) {
      EXPECT_LE(scan->whole_bytes, input.size());
      EXPECT_LE(scan->last.size(), input.size());
    }
    Result<SessionState> state = ReadSessionJournal(input);
    if (state.ok()) {
      ++ok;
      // Five bytes per label: nothing was sized beyond the input.
      EXPECT_LE(state->labels.size() * 5, input.size());
      EXPECT_LE(state->camera_id.size(), input.size());
    } else {
      const Status& s = state.status();
      EXPECT_TRUE(s.IsNotFound() || s.IsCorruption() || s.IsDataLoss() ||
                  s.IsNotSupported())
          << "iteration " << iter << ": " << s.ToString();
    }
  }
  // Torn tails and cut records resume; the fuzzer reaches that path.
  EXPECT_GT(ok, 1000);
}

}  // namespace
}  // namespace mivid
