// Tests for db/: codec, catalog, feature store, VideoDb, QueryEngine.

#include <cstdio>
#include <filesystem>
#include <map>

#include <gtest/gtest.h>

#include "db/codec.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "eval/experiment.h"

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

TEST(CodecTest, FixedWidthRoundtrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  PutDouble(&buf, -3.25);
  PutLengthPrefixed(&buf, "hello");
  PutVec(&buf, {1.5, -2.5});

  Decoder dec(buf);
  uint32_t v32;
  uint64_t v64;
  double d;
  std::string s;
  Vec vec;
  ASSERT_TRUE(dec.GetFixed32(&v32).ok());
  EXPECT_EQ(v32, 0xdeadbeefu);
  ASSERT_TRUE(dec.GetFixed64(&v64).ok());
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  ASSERT_TRUE(dec.GetDouble(&d).ok());
  EXPECT_DOUBLE_EQ(d, -3.25);
  ASSERT_TRUE(dec.GetLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.GetVec(&vec).ok());
  EXPECT_EQ(vec, (Vec{1.5, -2.5}));
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, TruncatedReadsReportCorruption) {
  std::string buf;
  PutFixed32(&buf, 7);
  buf.resize(2);
  Decoder dec(buf);
  uint32_t v;
  EXPECT_TRUE(dec.GetFixed32(&v).IsCorruption());

  std::string buf2;
  PutLengthPrefixed(&buf2, "abcdef");
  buf2.resize(6);  // length says 6, only 2 bytes present
  Decoder dec2(buf2);
  std::string s;
  EXPECT_TRUE(dec2.GetLengthPrefixed(&s).IsCorruption());
}

TEST(CodecTest, Crc32cKnownVectorAndSensitivity) {
  // CRC-32C of "123456789" is 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_NE(Crc32c("123456789"), Crc32c("123456780"));
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(CatalogTest, AddGetRemoveList) {
  Catalog catalog;
  ClipInfo info;
  info.camera_id = "cam-1";
  info.location = "tunnel A";
  info.total_frames = 2504;
  const int id = catalog.Add(info);
  EXPECT_EQ(id, 0);
  EXPECT_EQ(catalog.Add(info), 1);
  EXPECT_EQ(catalog.size(), 2u);

  Result<ClipInfo> got = catalog.Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->camera_id, "cam-1");
  EXPECT_TRUE(catalog.Get(9).status().IsNotFound());

  ASSERT_TRUE(catalog.Remove(0).ok());
  EXPECT_TRUE(catalog.Remove(0).IsNotFound());
  EXPECT_EQ(catalog.List().size(), 1u);
  // Ids are never reused.
  EXPECT_EQ(catalog.Add(info), 2);
}

TEST(CatalogTest, CameraGrouping) {
  Catalog catalog;
  ClipInfo a;
  a.camera_id = "cam-1";
  ClipInfo b;
  b.camera_id = "cam-2";
  catalog.Add(a);
  catalog.Add(b);
  catalog.Add(a);
  EXPECT_EQ(catalog.Cameras(), (std::vector<std::string>{"cam-1", "cam-2"}));
  EXPECT_EQ(catalog.ClipsForCamera("cam-1"), (std::vector<int>{0, 2}));
  EXPECT_TRUE(catalog.ClipsForCamera("cam-9").empty());
}

TEST(CatalogTest, SerializeDeserializeRoundtrip) {
  Catalog catalog;
  ClipInfo info;
  info.camera_id = "cam-7";
  info.location = "Taiwan intersection";
  info.start_time_ms = 1234567890123LL;
  info.fps = 29.97;
  info.width = 320;
  info.height = 240;
  info.total_frames = 592;
  info.scenario = "intersection";
  catalog.Add(info);
  catalog.Add(info);
  (void)catalog.Remove(0);

  Result<Catalog> back = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 1u);
  Result<ClipInfo> got = back->Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->location, "Taiwan intersection");
  EXPECT_DOUBLE_EQ(got->fps, 29.97);
  // next_id preserved: new adds continue the sequence.
  EXPECT_EQ(back->Add(info), 2);
}

TEST(CatalogTest, DeserializeRejectsGarbageAndBitflips) {
  EXPECT_FALSE(Catalog::Deserialize("nope").ok());
  Catalog catalog;
  ClipInfo info;
  info.camera_id = "x";
  catalog.Add(info);
  std::string bytes = catalog.Serialize();
  bytes[bytes.size() - 1] ^= 0xff;
  EXPECT_TRUE(Catalog::Deserialize(bytes).status().IsCorruption());
}

std::vector<Track> MakeTracks() {
  std::vector<Track> tracks(2);
  tracks[0].id = 0;
  tracks[1].id = 5;
  for (int f = 0; f < 40; ++f) {
    tracks[0].points.push_back(
        {f, {2.5 * f, 100.0}, BBox(2.5 * f - 8, 96, 2.5 * f + 8, 104)});
    if (f >= 10) {
      tracks[1].points.push_back(
          {f, {300 - 2.0 * f, 130.0}, BBox(0, 0, 1, 1)});
    }
  }
  return tracks;
}

std::vector<IncidentRecord> MakeIncidents() {
  IncidentRecord rec;
  rec.type = IncidentType::kRearEnd;
  rec.begin_frame = 12;
  rec.end_frame = 30;
  rec.vehicle_ids = {0, 5};
  return {rec};
}

TEST(FeatureStoreTest, TracksRoundtrip) {
  const auto tracks = MakeTracks();
  Result<std::vector<Track>> back = DeserializeTracks(SerializeTracks(tracks));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[1].id, 5);
  EXPECT_EQ((*back)[0].points.size(), 40u);
  EXPECT_DOUBLE_EQ((*back)[0].points[3].centroid.x, 7.5);
  EXPECT_DOUBLE_EQ((*back)[0].points[3].bbox.min_y, 96.0);
}

TEST(FeatureStoreTest, IncidentsRoundtrip) {
  Result<std::vector<IncidentRecord>> back =
      DeserializeIncidents(SerializeIncidents(MakeIncidents()));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].type, IncidentType::kRearEnd);
  EXPECT_EQ((*back)[0].vehicle_ids, (std::vector<int>{0, 5}));
}

TEST(FeatureStoreTest, CorruptionDetected) {
  std::string bytes = SerializeTracks(MakeTracks());
  bytes[20] ^= 0x1;
  EXPECT_TRUE(DeserializeTracks(bytes).status().IsCorruption());
  // Wrong magic (incidents blob parsed as tracks).
  EXPECT_FALSE(DeserializeTracks(SerializeIncidents(MakeIncidents())).ok());
}

TEST(VideoDbTest, OpenSemantics) {
  TempDir dir("mivid_db_open");
  VideoDbOptions options;
  // Missing + no create => NotFound.
  EXPECT_TRUE(VideoDb::Open(dir.path(), options).status().IsNotFound());
  options.create_if_missing = true;
  Result<std::unique_ptr<VideoDb>> db = VideoDb::Open(dir.path(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Reopen existing with error_if_exists => AlreadyExists.
  options.error_if_exists = true;
  EXPECT_TRUE(VideoDb::Open(dir.path(), options).status().IsAlreadyExists());
}

TEST(VideoDbTest, IngestLoadPersistAcrossReopen) {
  TempDir dir("mivid_db_ingest");
  VideoDbOptions options;
  options.create_if_missing = true;
  {
    auto db = VideoDb::Open(dir.path(), options);
    ASSERT_TRUE(db.ok());
    ClipInfo info;
    info.camera_id = "cam-tunnel";
    info.total_frames = 2504;
    Result<int> id = db.value()->IngestClip(info, MakeTracks(), MakeIncidents());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), 0);
  }
  // Reopen and read back.
  options.create_if_missing = false;
  auto db = VideoDb::Open(dir.path(), options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->clip_count(), 1u);
  Result<ClipRecord> record = db.value()->LoadClip(0);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->info.camera_id, "cam-tunnel");
  EXPECT_EQ(record->tracks.size(), 2u);
  EXPECT_EQ(record->incidents.size(), 1u);
}

// Databases written while `mivid_cli query` still saved its SVM model
// hold a model_<name>.svm file next to the clips. Nothing reads it now:
// the database opens, lists the same clips and serves the same corpus.
TEST(VideoDbTest, OpensWithALeftoverSavedModelFile) {
  TempDir dir("mivid_db_leftover_model");
  VideoDbOptions options;
  options.create_if_missing = true;
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 500;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  const GroundTruth gt = TrafficWorld(scenario).Run();
  QueryOptions query;
  std::vector<ClipInfo> clips_before;
  std::map<int, BagLabel> truth_before;
  std::vector<int> ranking_before;
  {
    auto db = VideoDb::Open(dir.path(), options);
    ASSERT_TRUE(db.ok());
    ClipInfo info;
    info.camera_id = "cam-9";
    info.total_frames = scenario.total_frames;
    ASSERT_TRUE(db.value()->IngestClip(info, gt.tracks, gt.incidents).ok());
    ASSERT_TRUE(db.value()->IngestClip(info, MakeTracks(), MakeIncidents()).ok());
    clips_before = db.value()->ListClips();
    Result<CameraCorpus> corpus =
        QueryEngine(db.value().get()).BuildCorpus("cam-9", query);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    truth_before = corpus->truth;
    Result<RetrievalSession> session =
        RetrievalSession::Create(corpus->dataset, SessionOptionsFor(query));
    ASSERT_TRUE(session.ok());
    ranking_before = session->TopBags();
  }
  // An old model file's magic ("OVSM"), checksum word and version; the
  // rest does not matter because no reader is left.
  {
    std::FILE* f =
        std::fopen((dir.path() + "/model_accidents_cam-9.svm").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char bytes[] = "OVSM\0\0\0\0\x01\0\0\0leftover model body";
    ASSERT_EQ(std::fwrite(bytes, 1, sizeof(bytes), f), sizeof(bytes));
    std::fclose(f);
  }

  options.create_if_missing = false;
  auto db = VideoDb::Open(dir.path(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<ClipInfo> clips = db.value()->ListClips();
  ASSERT_EQ(clips.size(), clips_before.size());
  for (size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(clips[i].clip_id, clips_before[i].clip_id);
    EXPECT_EQ(clips[i].camera_id, clips_before[i].camera_id);
    EXPECT_EQ(clips[i].total_frames, clips_before[i].total_frames);
  }
  Result<CameraCorpus> corpus =
      QueryEngine(db.value().get()).BuildCorpus("cam-9", query);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->truth, truth_before);
  Result<RetrievalSession> session =
      RetrievalSession::Create(corpus->dataset, SessionOptionsFor(query));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->TopBags(), ranking_before);
}

TEST(QueryEngineTest, BuildsCorpusFromStoredClipsAndRunsSession) {
  TempDir dir("mivid_db_query");
  VideoDbOptions options;
  options.create_if_missing = true;
  auto db = VideoDb::Open(dir.path(), options);
  ASSERT_TRUE(db.ok());

  // Ingest a small simulated clip with ground-truth tracks + incidents.
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 700;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  TrafficWorld world(scenario);
  const GroundTruth gt = world.Run();
  ClipInfo info;
  info.camera_id = "cam-9";
  info.total_frames = scenario.total_frames;
  ASSERT_TRUE(db.value()->IngestClip(info, gt.tracks, gt.incidents).ok());

  QueryEngine engine(db.value().get());
  QueryOptions query;
  Result<CameraCorpus> corpus = engine.BuildCorpus("cam-9", query);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_GT(corpus->dataset.size(), 0u);
  EXPECT_EQ(corpus->dataset.size(), corpus->bag_refs.size());
  EXPECT_EQ(corpus->dataset.size(), corpus->truth.size());
  // At least one window overlaps an accident.
  size_t relevant = 0;
  for (const auto& [id, label] : corpus->truth) {
    (void)id;
    relevant += label == BagLabel::kRelevant ? 1 : 0;
  }
  EXPECT_GT(relevant, 0u);

  Result<RetrievalSession> session =
      RetrievalSession::Create(corpus->dataset, SessionOptionsFor(query));
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->TopBags().empty());

  EXPECT_TRUE(engine.BuildCorpus("cam-none", query).status().IsNotFound());
}

}  // namespace
}  // namespace mivid
