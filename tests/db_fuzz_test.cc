// Seeded fuzzers over the database's binary decoders: the catalog, the
// tracks and incidents stores, and stored video frames with their RLE
// codec. Each case mutates the body of a file the writer produced and
// re-seals its CRC32C envelope, so it reaches the field decoders instead
// of stopping at the checksum; the RLE fuzzer mutates bare streams.
// Every case must decode or fail cleanly. The named tests below the
// fuzzers pin what the fuzzers found.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/rng.h"
#include "db/catalog.h"
#include "db/codec.h"
#include "db/feature_store.h"
#include "db/frame_store.h"
#include "db/video_db.h"
#include "fuzz_mutate.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;
using test::Mutate;

constexpr int kCases = 5000;

/// The body of an envelope (magic, CRC32C, body) re-sealed after a
/// mutation, so the checksum holds. One case in eight also mutates the
/// header, which keeps the magic and checksum paths covered.
std::string MutateSealed(const std::vector<std::string>& corpus, Rng* rng) {
  const std::string& base = corpus[rng->UniformInt(0, corpus.size() - 1)];
  const std::string& other = corpus[rng->UniformInt(0, corpus.size() - 1)];
  std::string body = Mutate(base.substr(8), other.substr(8), rng);
  if (rng->UniformInt(0, 3) == 0) body = Mutate(body, other.substr(8), rng);
  std::string out = base.substr(0, 4);
  PutFixed32(&out, Crc32c(body));
  out += body;
  if (rng->UniformInt(0, 7) == 0) out = Mutate(out, other, rng);
  return out;
}

/// Re-seals a hand-built body under the magic of `like`, a real file.
std::string Seal(const std::string& like, const std::string& body) {
  std::string out = like.substr(0, 4);
  PutFixed32(&out, Crc32c(body));
  return out + body;
}

/// A clean decoder failure. Trailing bytes inside a valid envelope are
/// DataLoss (Decoder::ExpectDone); everything else is Corruption or, for
/// an unknown version, NotSupported.
bool CleanFailure(const Status& s) {
  return s.IsCorruption() || s.IsNotSupported() || s.IsDataLoss();
}

std::vector<Track> FuzzTracks(int n, int points) {
  std::vector<Track> tracks(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    tracks[t].id = 3 * t;
    for (int f = 0; f < points; ++f) {
      tracks[t].points.push_back(
          {f + t, {1.5 * f, 40.0 + t}, BBox(f, 30, f + 12, 50)});
    }
  }
  return tracks;
}

std::vector<IncidentRecord> FuzzIncidents() {
  std::vector<IncidentRecord> out(3);
  out[0] = {IncidentType::kRearEnd, 12, 30, {0, 5}};
  out[1] = {IncidentType::kWallCrash, 100, 180, {7}};
  out[2] = {IncidentType::kSpeeding, 0, 0, {}};
  return out;
}

Catalog FuzzCatalog(int clips) {
  Catalog catalog;
  for (int i = 0; i < clips; ++i) {
    ClipInfo info;
    info.camera_id = i % 2 ? "cam-a" : "cam-b";
    info.location = "tunnel";
    info.total_frames = 600 + i;
    info.width = 320;
    info.height = 240;
    info.scenario = "tunnel";
    catalog.Add(info);
  }
  if (clips > 2) {
    EXPECT_TRUE(catalog.Remove(1).ok());  // an id gap
  }
  return catalog;
}

VideoClip FuzzClip(bool noisy) {
  VideoClip clip;
  Rng rng(noisy ? 7 : 8);
  for (int f = 0; f < 3; ++f) {
    Frame frame(12, 8, static_cast<uint8_t>(40 + f));
    if (noisy) {
      for (uint8_t& p : frame.pixels()) {
        p = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
    }
    clip.Append(std::move(frame));
  }
  return clip;
}

TEST(DbCodecFuzzTest, MutatedCatalogsReadOkOrCorruption) {
  const std::vector<std::string> corpus = {
      FuzzCatalog(0).Serialize(), FuzzCatalog(1).Serialize(),
      FuzzCatalog(5).Serialize()};
  Rng rng(20261031);
  int accepted = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    const std::string input = MutateSealed(corpus, &rng);
    Result<Catalog> read = Catalog::Deserialize(input);
    if (!read.ok()) {
      ASSERT_TRUE(CleanFailure(read.status()))
          << "iteration " << iter << ": " << read.status().ToString();
      continue;
    }
    ++accepted;
    // The next ingest takes a fresh id and never replaces a stored clip.
    Catalog catalog = std::move(read).value();
    const size_t before = catalog.size();
    const int id = catalog.Add(ClipInfo{});
    ASSERT_GE(id, 0) << "iteration " << iter;
    ASSERT_EQ(catalog.size(), before + 1) << "iteration " << iter;
    for (const ClipInfo& info : catalog.List()) {
      ASSERT_GE(info.clip_id, 0) << "iteration " << iter;
    }
    ASSERT_TRUE(Catalog::Deserialize(catalog.Serialize()).ok())
        << "iteration " << iter;
  }
  EXPECT_GT(accepted, 500);
}

TEST(DbCodecFuzzTest, MutatedTracksReadOkOrCleanError) {
  const std::vector<std::string> corpus = {
      SerializeTracks({}), SerializeTracks(FuzzTracks(1, 3)),
      SerializeTracks(FuzzTracks(3, 5))};
  Rng rng(20261032);
  int accepted = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    const std::string input = MutateSealed(corpus, &rng);
    Result<std::vector<Track>> read = DeserializeTracks(input);
    if (!read.ok()) {
      ASSERT_TRUE(CleanFailure(read.status()))
          << "iteration " << iter << ": " << read.status().ToString();
      continue;
    }
    ++accepted;
    // 8 bytes per track and 52 per point: nothing sized beyond the input.
    size_t bytes = 8 * read->size();
    for (const Track& t : read.value()) bytes += 52 * t.points.size();
    ASSERT_LE(bytes, input.size()) << "iteration " << iter;
  }
  EXPECT_GT(accepted, 500);
}

TEST(DbCodecFuzzTest, MutatedIncidentsReadOkOrCleanError) {
  const std::vector<std::string> corpus = {SerializeIncidents({}),
                                           SerializeIncidents(FuzzIncidents())};
  Rng rng(20261033);
  int accepted = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    const std::string input = MutateSealed(corpus, &rng);
    Result<std::vector<IncidentRecord>> read = DeserializeIncidents(input);
    if (!read.ok()) {
      ASSERT_TRUE(CleanFailure(read.status()))
          << "iteration " << iter << ": " << read.status().ToString();
      continue;
    }
    ++accepted;
    // 16 bytes per incident and 4 per vehicle id.
    size_t bytes = 16 * read->size();
    for (const IncidentRecord& rec : read.value()) {
      ASSERT_LE(static_cast<int>(rec.type),
                static_cast<int>(IncidentType::kSpeeding))
          << "iteration " << iter;
      bytes += 4 * rec.vehicle_ids.size();
    }
    ASSERT_LE(bytes, input.size()) << "iteration " << iter;
  }
  EXPECT_GT(accepted, 150);
}

TEST(DbCodecFuzzTest, MutatedFramesReadOkOrCorruption) {
  const std::vector<std::string> corpus = {SerializeFrames(FuzzClip(false)),
                                           SerializeFrames(FuzzClip(true))};
  Rng rng(20261034);
  int accepted = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    const std::string input = MutateSealed(corpus, &rng);
    Result<VideoClip> read = DeserializeFrames(input);
    if (!read.ok()) {
      ASSERT_TRUE(CleanFailure(read.status()))
          << "iteration " << iter << ": " << read.status().ToString();
      continue;
    }
    ++accepted;
    const size_t pixels = static_cast<size_t>(read->metadata().width) *
                          static_cast<size_t>(read->metadata().height);
    // One marker and one length per frame.
    ASSERT_LE(5 * read->frame_count(), input.size()) << "iteration " << iter;
    for (size_t f = 0; f < read->frame_count(); ++f) {
      ASSERT_EQ(read->frame(f).pixels().size(), pixels)
          << "iteration " << iter;
    }
  }
  EXPECT_GT(accepted, 500);
}

TEST(DbCodecFuzzTest, MutatedRleStreamsDecodeToTheExpectedSizeOrCorruption) {
  std::vector<uint8_t> runs(300, 9);
  for (size_t i = 0; i < runs.size(); i += 7) runs[i] = static_cast<uint8_t>(i);
  const std::vector<std::vector<uint8_t>> plain = {runs,
                                                   std::vector<uint8_t>(96, 3)};
  const std::vector<std::string> corpus = {RleEncode(plain[0]),
                                           RleEncode(plain[1])};
  Rng rng(20261035);
  int accepted = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    const size_t pick = static_cast<size_t>(rng.UniformInt(0, 1));
    const std::string& other = corpus[rng.UniformInt(0, 1)];
    const std::string input = Mutate(corpus[pick], other, &rng);
    // Usually the size the frame header gives; sometimes any size.
    const size_t expected = rng.UniformInt(0, 3)
                                ? plain[pick].size()
                                : static_cast<size_t>(rng.UniformInt(0, 400));
    Result<std::vector<uint8_t>> read = RleDecode(input, expected);
    if (!read.ok()) {
      ASSERT_TRUE(read.status().IsCorruption())
          << "iteration " << iter << ": " << read.status().ToString();
      continue;
    }
    ++accepted;
    ASSERT_EQ(read->size(), expected) << "iteration " << iter;
  }
  EXPECT_GT(accepted, 300);
}

// Found by MutatedTracksReadOkOrCleanError: a count sized the vector
// before any record was read, so a sealed file of a few bytes asked for
// gigabytes and threw std::bad_alloc.
TEST(DbCodecFuzzTest, TrackAndPointCountsBeyondTheRecordAreCorruption) {
  const std::string like = SerializeTracks({});
  std::string body;
  PutFixed32(&body, 1);            // version
  PutFixed32(&body, 0xfffffff0u);  // tracks
  EXPECT_TRUE(DeserializeTracks(Seal(like, body)).status().IsCorruption());

  body.clear();
  PutFixed32(&body, 1);            // version
  PutFixed32(&body, 1);            // tracks
  PutFixed32(&body, 4);            // id
  PutFixed32(&body, 0xfffffff0u);  // points
  EXPECT_TRUE(DeserializeTracks(Seal(like, body)).status().IsCorruption());
}

// Found by MutatedIncidentsReadOkOrCleanError, as for tracks.
TEST(DbCodecFuzzTest, IncidentAndVehicleCountsBeyondTheRecordAreCorruption) {
  const std::string like = SerializeIncidents({});
  std::string body;
  PutFixed32(&body, 1);            // version
  PutFixed32(&body, 0xfffffff0u);  // incidents
  EXPECT_TRUE(DeserializeIncidents(Seal(like, body)).status().IsCorruption());

  body.clear();
  PutFixed32(&body, 1);            // version
  PutFixed32(&body, 1);            // incidents
  PutFixed32(&body, 2);            // type
  PutFixed32(&body, 10);           // begin
  PutFixed32(&body, 20);           // end
  PutFixed32(&body, 0xfffffff0u);  // vehicles
  EXPECT_TRUE(DeserializeIncidents(Seal(like, body)).status().IsCorruption());
}

/// A catalog body: version, next_id, then one minimal entry per id.
std::string CatalogBody(uint32_t next_id, const std::vector<uint32_t>& ids) {
  std::string body;
  PutFixed32(&body, 1);
  PutFixed32(&body, next_id);
  PutFixed32(&body, static_cast<uint32_t>(ids.size()));
  for (uint32_t id : ids) {
    PutFixed32(&body, id);
    PutLengthPrefixed(&body, "cam");
    PutLengthPrefixed(&body, "");
    PutFixed64(&body, 0);
    PutDouble(&body, 25.0);
    PutFixed32(&body, 320);
    PutFixed32(&body, 240);
    PutFixed32(&body, 600);
    PutLengthPrefixed(&body, "");
  }
  return body;
}

// Catalog::Add hands out next_id, so a stored id at or past it would be
// handed out again and the next ingest would replace that clip.
TEST(CatalogIdTest, IdsThatCouldBeHandedOutAgainAreCorruption) {
  const std::string like = Catalog().Serialize();
  auto read = [&](uint32_t next_id, const std::vector<uint32_t>& ids) {
    return Catalog::Deserialize(Seal(like, CatalogBody(next_id, ids)))
        .status();
  };
  EXPECT_TRUE(read(0, {}).ok());
  EXPECT_TRUE(read(3, {0, 2}).ok());
  EXPECT_TRUE(read(0x7fffffffu, {0x7ffffffeu}).ok());

  EXPECT_TRUE(read(0, {0}).IsCorruption());            // next_id == id
  EXPECT_TRUE(read(2, {0, 5}).IsCorruption());         // next_id < id
  EXPECT_TRUE(read(3, {1, 1}).IsCorruption());         // duplicate id
  EXPECT_TRUE(read(0x80000000u, {}).IsCorruption());   // next_id >= 2^31
  EXPECT_TRUE(read(0xffffffffu, {0}).IsCorruption());
  EXPECT_TRUE(read(0x7fffffffu, {0x80000000u}).IsCorruption());  // id >= 2^31
}

TEST(CatalogIdTest, DatabaseWhoseNextIdIsBehindItsClipsFailsToOpen) {
  const std::string dir =
      (fs::temp_directory_path() / "mivid_catalog_next_id").string();
  fs::remove_all(dir);
  VideoDbOptions options;
  options.create_if_missing = true;
  {
    auto db = VideoDb::Open(dir, options);
    ASSERT_TRUE(db.ok());
    ClipInfo info;
    info.camera_id = "cam";
    ASSERT_TRUE(db.value()->IngestClip(info, FuzzTracks(1, 3), {}).ok());
    ASSERT_TRUE(db.value()->IngestClip(info, FuzzTracks(2, 3), {}).ok());
  }
  // Patch next_id (the body's second word) to 0 and re-seal the CRC, as
  // a stale or hand-edited catalog would read.
  const std::string path = dir + "/CATALOG";
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string body = bytes->substr(8);
  std::string zero;
  PutFixed32(&zero, 0);
  body.replace(4, 4, zero);
  ASSERT_TRUE(WriteFileAtomic(path, Seal(bytes.value(), body)).ok());

  options.create_if_missing = false;
  auto db = VideoDb::Open(dir, options);
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mivid
