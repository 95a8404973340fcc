// Tests for the wire number codec and the JSON decoders that read it:
//
//  * JsonNumberCodecTest: the one number writer (AppendDouble) prints
//    printf("%.17g")'s bytes, every wire writer routes through it, and
//    ParseDouble reads every finite double back bit-identically,
//  * JsonFuzzTest: seeded mutations of request lines and a rank reply
//    captured from a live server, fed to ParseJson and
//    ParseServeRequest, plus one named regression test per finding,
//  * JsonIntTest: JsonValue::Int's accept/refuse table for int, int64_t
//    and uint64_t,
//  * ForeignJsonTest: the decoders of JSON another process wrote (epoch
//    manifest, metrics snapshot, trace clock anchor, worker replies),
//    each fuzzed the same way, plus a named test per bad-number finding.

#include <unistd.h>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "db/epoch_manifest.h"
#include "db/video_db.h"
#include "fuzz_mutate.h"
#include "ingest_lines.h"
#include "obs/json.h"
#include "obs/metrics_wire.h"
#include "obs/trace_stitch.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// The codec's edge values and their neighbours, both signs: zeros, the
/// extremes, 2^53 +- 1, and the points where %.17g switches between
/// fixed and exponent notation (exponent -5/-4 and 16/17).
std::vector<double> EdgeValues() {
  const double two53 = std::ldexp(1.0, 53);
  const std::vector<double> base = {
      0.0,  DBL_MIN, DBL_TRUE_MIN, DBL_MAX, two53 - 1, two53, two53 + 1,
      1e-5, 1e-4,    1e16,         1e17,    0.1,       1.0,   1.0 / 3.0};
  std::vector<double> out;
  for (double v : base) {
    for (double w : {v, std::nextafter(v, 0.0), std::nextafter(v, DBL_MAX)}) {
      out.push_back(w);
      out.push_back(-w);
    }
  }
  return out;
}

/// 10^5 finite doubles from uniformly drawn bit patterns (every exponent
/// equally likely, subnormals included), then the edge values.
std::vector<double> CodecValues() {
  std::vector<double> out;
  Rng rng(20261019);
  while (out.size() < 100000) {
    const double v = FromBits(rng.Next());
    if (std::isfinite(v)) out.push_back(v);
  }
  for (double v : EdgeValues()) out.push_back(v);
  return out;
}

std::string Printf17(double v) { return StrFormat("%.17g", v); }

TEST(JsonNumberCodecTest, WriterBytesEqualPrintf17g) {
  const std::vector<double> values = CodecValues();
  for (double v : values) {
    std::string appended = "x";
    AppendDouble(&appended, v);
    ASSERT_EQ(appended, "x" + Printf17(v)) << Bits(v);

    JsonLineBuilder line;
    line.Num("n", v);
    ASSERT_EQ(std::move(line).Build(), "{\"n\":" + Printf17(v) + "}");
  }
  // The metrics exporter prints through the same writer.
  MetricsSnapshot snapshot;
  for (size_t i = 0; i < 1000; ++i) {
    snapshot.gauges["g"] = values[i];
    EXPECT_EQ(MetricsSnapshotToWireJson(snapshot),
              "{\"counters\":{},\"gauges\":{\"g\":" + Printf17(values[i]) +
                  "},\"histograms\":{}}");
  }
}

TEST(JsonNumberCodecTest, SerializePrintsIntegersAsLldAndTheRestAs17g) {
  Rng rng(53);
  std::vector<double> integers = {0.0, -0.0, 1.0, -1.0, 9007199254740991.0,
                                  -9007199254740991.0};
  for (int i = 0; i < 10000; ++i) {
    integers.push_back(static_cast<double>(
        rng.UniformInt(-9007199254740991LL, 9007199254740991LL)));
  }
  JsonValue number;
  number.type = JsonValue::Type::kNumber;
  for (double v : integers) {
    number.number = v;
    ASSERT_EQ(JsonSerialize(number),
              StrFormat("%lld", static_cast<long long>(v)));
  }
  for (double v : CodecValues()) {
    number.number = v;
    const bool integral = std::abs(v) < 9.007199254740992e15 && v == std::trunc(v);
    ASSERT_EQ(JsonSerialize(number),
              integral ? StrFormat("%lld", static_cast<long long>(v))
                       : Printf17(v))
        << Bits(v);
  }
}

TEST(JsonNumberCodecTest, ParseDoubleAgreesWithStrtodOnNormals) {
  for (double v : CodecValues()) {
    for (const char* format : {"%.17g", "%.6g", "%.3e", "%.25g"}) {
      const std::string text = StrFormat(format, v);
      errno = 0;
      char* end = nullptr;
      const double want = std::strtod(text.c_str(), &end);
      if (errno != 0) continue;  // strtod's ERANGE: see the round-trip test
      ASSERT_EQ(end, text.c_str() + text.size());
      double got = 1.0;
      ASSERT_TRUE(ParseDouble(text, &got)) << text;
      ASSERT_EQ(Bits(got), Bits(want)) << text;
    }
  }
}

TEST(JsonNumberCodecTest, EveryFiniteDoubleRoundTripsBitIdentically) {
  std::vector<double> values = CodecValues();
  // Subnormals explicitly: the strtod reader refused all of them.
  Rng rng(324);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(FromBits(rng.Next() & 0x800fffffffffffffULL));
  }
  for (double v : values) {
    std::string text;
    AppendDouble(&text, v);
    double parsed = 1.0;
    ASSERT_TRUE(ParseDouble(text, &parsed)) << text;
    ASSERT_EQ(Bits(parsed), Bits(v)) << text;
    Result<JsonValue> doc = ParseJson("[" + text + "]");
    ASSERT_TRUE(doc.ok()) << text << ": " << doc.status().ToString();
    ASSERT_EQ(Bits(doc->array.at(0).number), Bits(v)) << text;
  }
}

// ---------------------------------------------------------------------------
// Fuzzing the request and reply decoders

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_((fs::temp_directory_path() /
               (std::string(name) + "." + std::to_string(getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Request lines and a full rank reply, captured from a server that
/// ingests a short live clip, opens a session, takes feedback and ranks.
std::vector<std::string> CapturedWireLines() {
  TempDir dir("mivid_json_fuzz");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  EXPECT_TRUE(opened.ok());
  if (!opened.ok()) return {};
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  RetrievalServer server(db.get(), ServeOptions{});

  TunnelScenarioOptions scenario;
  scenario.total_frames = 300;
  scenario.num_wall_crashes = 1;
  scenario.num_sudden_stops = 1;
  scenario.seed = 9;
  TrafficWorld world(MakeTunnelScenario(scenario));
  const GroundTruth gt = world.Run();
  const std::vector<FrameObservations> frames =
      test::FramesFromTracks(gt.tracks, gt.total_frames);

  std::vector<std::string> lines;
  auto call = [&](const std::string& line) {
    const std::string reply = server.HandleLine(line);
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    lines.push_back(line);
    return reply;
  };
  // The clip streams in two batches. The seed keeps the short last one,
  // which carries the incidents, cuts and publishes: every ingest field.
  const auto tail = frames.end() - 8;
  call(test::IngestLine("camF", {frames.begin(), tail}, {}, false, false));
  lines.pop_back();
  call(test::IngestLine("camF", {tail, frames.end()}, gt.incidents, true,
                        true));
  call(R"({"cmd":"open","session":"fz","camera":"camF","engine":"milrf"})");
  const std::string first = call(R"({"cmd":"rank","session":"fz","top":3})");
  Result<JsonValue> top = ParseJson(first);
  EXPECT_TRUE(top.ok());
  const std::vector<JsonValue>& ranked = top->Find("ranking")->array;
  EXPECT_GE(ranked.size(), 2u);
  call(StrFormat(
      R"({"cmd":"feedback","session":"fz","labels":[{"bag":%d,"label":"relevant"},)"
      R"({"bag":%d,"label":"irrelevant","camera":"camF"}],"v":1})",
      static_cast<int>(ranked.at(0).Find("bag")->number),
      static_cast<int>(ranked.at(1).Find("bag")->number)));
  lines.push_back(StampDeadlineMs(
      StampTraceContext(R"({"cmd":"rank","session":"fz","top":-1})", "t1",
                        "s1"),
      250));
  lines.push_back(call(R"({"cmd":"rank","session":"fz","top":-1})"));
  return lines;
}

/// Number texts at the codec's edges: subnormals, overflow and underflow,
/// integers past int and 2^53, and the non-JSON spellings the reader
/// accepts or refuses.
const char* const kEdgeNumbers[] = {
    "1e-310", "4.9406564584124654e-324", "2.2250738585072014e-308",
    "1e400", "-1e400", "1e-400", "-0", "+1", "1.", "-.5", "00012", "1e",
    "1e+", "--1", "+-1", "2147483647", "2147483648", "-2147483649",
    "1e10", "9007199254740993", "1.7976931348623157e308",
    "123456789012345678901234567890"};

/// Replaces the first number at or after a random offset of `*text`
/// with one of `edges`.
template <size_t N>
void SwapNumber(std::string* text, const char* const (&edges)[N], Rng* rng) {
  const size_t from = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(text->size())));
  const size_t at = text->find_first_of("-0123456789", from);
  if (at == std::string::npos) return;
  const size_t end = text->find_first_not_of("+-.0123456789eE", at);
  const char* edge = edges[rng->UniformInt(0, N - 1)];
  text->replace(at, (end == std::string::npos ? text->size() : end) - at, edge);
}

/// A JSON-aware edit: swap one number for an edge spelling, open a run
/// of brackets (deep nesting), or repeat a member.
std::string MutateJson(const std::string& input, Rng* rng) {
  std::string out = input;
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n)));
  };
  switch (rng->UniformInt(0, 2)) {
    case 0:
      SwapNumber(&out, kEdgeNumbers, rng);
      break;
    case 1: {
      const size_t depth = rng->Bernoulli(0.1) ? 1 + pick(100000) : 1 + pick(80);
      out.insert(pick(out.size()), std::string(depth, "[{"[rng->UniformInt(0, 1)]));
      break;
    }
    default: {
      const size_t comma = out.find(',', pick(out.size()));
      const size_t next = comma == std::string::npos ? comma : out.find(',', comma + 1);
      if (next == std::string::npos) break;
      out.insert(next, out.substr(comma, next - comma));
      break;
    }
  }
  return out;
}

TEST(JsonFuzzTest, MutatedWireLinesParseOkOrInvalidArgument) {
  const std::vector<std::string> corpus = CapturedWireLines();
  ASSERT_EQ(corpus.size(), 7u);
  Rng rng(20261020);
  int parsed = 0;
  int requests = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string& base = corpus[rng.UniformInt(0, corpus.size() - 1)];
    const std::string& other = corpus[rng.UniformInt(0, corpus.size() - 1)];
    std::string input = rng.Bernoulli(0.5) ? test::Mutate(base, other, &rng)
                                           : MutateJson(base, &rng);
    if (rng.UniformInt(0, 3) == 0) input = test::Mutate(input, other, &rng);

    Result<JsonValue> doc = ParseJson(input);
    if (doc.ok()) {
      ++parsed;
      // What the writer prints, the reader takes back unchanged.
      const std::string text = JsonSerialize(doc.value());
      Result<JsonValue> again = ParseJson(text);
      ASSERT_TRUE(again.ok()) << "iteration " << iter << ": " << text;
      ASSERT_EQ(JsonSerialize(again.value()), text) << "iteration " << iter;
    } else {
      ASSERT_TRUE(doc.status().IsInvalidArgument())
          << "iteration " << iter << ": " << doc.status().ToString();
    }

    Result<ServeRequest> req = ParseServeRequest(input);
    if (req.ok()) {
      ++requests;
      // Nothing was sized beyond the input.
      EXPECT_LE(req->labels.size(), input.size());
      EXPECT_LE(req->frames.size(), input.size());
      EXPECT_LE(req->incidents.size(), input.size());
    } else {
      ASSERT_TRUE(req.status().IsInvalidArgument())
          << "iteration " << iter << ": " << req.status().ToString();
    }
  }
  // The mutations leave many inputs well-formed, so the checks behind
  // the parse (fields, ranges, shapes) are reached too.
  EXPECT_GT(parsed, 2000);
  EXPECT_GT(requests, 1000);
}

// Finding: the recursive-descent reader recursed once per '[' or '{', so
// one request line of brackets (the transport admits 1 MiB) overflowed
// the daemon's stack.
TEST(JsonFuzzTest, DeepNestingIsRefusedNotRecursed) {
  const std::string deepest = std::string(kMaxJsonDepth, '[') +
                              std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(deepest).ok());
  const std::string deeper = "[" + deepest + "]";
  EXPECT_TRUE(ParseJson(deeper).status().IsInvalidArgument());
  for (char open : {'[', '{'}) {
    const std::string line(kMaxRequestBytes, open);
    EXPECT_TRUE(ParseJson(line).status().IsInvalidArgument());
    EXPECT_TRUE(ParseServeRequest(line).status().IsInvalidArgument());
  }
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"ping","x":)" +
                                std::string(100000, '[') + "}")
                  .status()
                  .IsInvalidArgument());
}

// Finding: integral numbers past int's range were converted to int (an
// undefined conversion; "top":1e10 read as INT_MIN). They are refused
// like any other non-integer.
TEST(JsonFuzzTest, IntegersPastIntRangeAreRefused) {
  for (const char* bad : {"2147483648", "-2147483649", "1e10", "1e300"}) {
    SCOPED_TRACE(bad);
    EXPECT_TRUE(ParseServeRequest(
                    StrFormat(R"({"cmd":"rank","session":"s","top":%s})", bad))
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(ParseServeRequest(StrFormat(R"({"cmd":"ping","v":%s})", bad))
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(
        ParseServeRequest(
            StrFormat(R"({"cmd":"feedback","session":"s","labels":)"
                      R"([{"bag":%s,"label":"relevant"}]})",
                      bad))
            .status()
            .IsInvalidArgument());
    EXPECT_TRUE(
        ParseServeRequest(
            StrFormat(R"({"cmd":"ingest","camera":"c","incidents":)"
                      R"([{"type":"wall_crash","begin":1,"end":2,)"
                      R"("vehicles":[%s]}]})",
                      bad))
            .status()
            .IsInvalidArgument());
  }
  // In range, the same shapes parse.
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"ingest","camera":"c","incidents":)"
                  R"([{"type":"wall_crash","begin":1,"end":2,"vehicles":[7]}]})")
                  .ok());
  Result<ServeRequest> edge = ParseServeRequest(
      R"({"cmd":"rank","session":"s","top":2147483647})");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->top, std::numeric_limits<int>::max());
  edge = ParseServeRequest(R"({"cmd":"rank","session":"s","top":-2147483648})");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->top, std::numeric_limits<int>::min());
}

// ---------------------------------------------------------------------------
// JsonValue::Int, the one way a JSON number becomes an integer

/// `text` parsed as the single element of an array.
JsonValue Element(const std::string& text) {
  Result<JsonValue> doc = ParseJson("[" + text + "]");
  EXPECT_TRUE(doc.ok()) << text;
  return doc.ok() && doc->array.size() == 1 ? doc->array[0] : JsonValue{};
}

TEST(JsonIntTest, AccessorEdgeTable) {
  using std::nullopt;
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr uint64_t kTwo63 = uint64_t{1} << 63;
  struct Row {
    const char* text;
    std::optional<int> as_int;
    std::optional<int64_t> as_int64;
    std::optional<uint64_t> as_uint64;
  };
  const Row rows[] = {
      {"0", 0, 0, 0},
      {"-0", 0, 0, 0},
      {"7", 7, 7, 7},
      {"2147483647", INT32_MAX, INT32_MAX, INT32_MAX},
      {"-2147483648", INT32_MIN, INT32_MIN, nullopt},
      {"2147483648", nullopt, int64_t{1} << 31, uint64_t{1} << 31},
      {"-2147483649", nullopt, -(int64_t{1} << 31) - 1, nullopt},
      {"9007199254740992", nullopt, kTwo53, uint64_t{kTwo53}},
      {"-9007199254740992", nullopt, -kTwo53, nullopt},
      {"1e10", nullopt, 10000000000, 10000000000},
      {"1.5", nullopt, nullopt, nullopt},
      {"-1", -1, -1, nullopt},
      {"-0.5", nullopt, nullopt, nullopt},
      {"1e-300", nullopt, nullopt, nullopt},
      // The largest double below 2^63, then 2^63 itself: (double)INT64_MAX
      // rounds up to 2^63, which int64_t cannot hold.
      {"9223372036854774784", nullopt, int64_t{9223372036854774784},
       uint64_t{9223372036854774784}},
      {"9223372036854775807", nullopt, nullopt, kTwo63},
      {"9223372036854775808", nullopt, nullopt, kTwo63},
      {"-9223372036854775808", nullopt, INT64_MIN, nullopt},
      {"-9223372036854777856", nullopt, nullopt, nullopt},
      // The largest double below 2^64, then 2^64 itself.
      {"18446744073709549568", nullopt, nullopt,
       uint64_t{18446744073709549568u}},
      {"18446744073709551615", nullopt, nullopt, nullopt},
      {"18446744073709551616", nullopt, nullopt, nullopt},
      {"1e30", nullopt, nullopt, nullopt},
      {"-1e30", nullopt, nullopt, nullopt},
      {"1.7976931348623157e308", nullopt, nullopt, nullopt},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.text);
    const JsonValue v = Element(row.text);
    ASSERT_TRUE(v.is_number());
    EXPECT_EQ(v.Int<int>(), row.as_int);
    EXPECT_EQ(v.Int<int64_t>(), row.as_int64);
    EXPECT_EQ(v.Int<uint64_t>(), row.as_uint64);
  }
  for (const char* text : {"\"1\"", "true", "false", "null", "[1]", "{}",
                           "{\"n\":1}"}) {
    SCOPED_TRACE(text);
    const JsonValue v = Element(text);
    EXPECT_EQ(v.Int<int>(), nullopt);
    EXPECT_EQ(v.Int<int64_t>(), nullopt);
    EXPECT_EQ(v.Int<uint64_t>(), nullopt);
  }
  // The parser never yields a non-finite number; the accessor refuses
  // one all the same.
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = bad;
    EXPECT_EQ(v.Int<int>(), nullopt);
    EXPECT_EQ(v.Int<int64_t>(), nullopt);
    EXPECT_EQ(v.Int<uint64_t>(), nullopt);
  }
}

// ---------------------------------------------------------------------------
// Decoders of JSON this process did not write: the epoch manifest, the
// metrics wire snapshot, the trace stitcher's clock anchor, and the
// worker replies the coordinator reads. Each bad number below was a
// float-to-integer conversion out of range, which is undefined
// behaviour; each now ends in a clean error.

constexpr const char* kManifestPath = "camA.manifest.json";

Result<EpochManifest> ManifestWith(const std::string& epoch,
                                   const std::string& clip,
                                   const std::string& file = "camA.seg0") {
  return ParseEpochManifest(
      StrFormat(R"({"camera":"camA","epoch":%s,"segments":[)"
                R"({"file":"%s","clips":[0,%s],"bags":4}]})",
                epoch.c_str(), file.c_str(), clip.c_str()),
      kManifestPath);
}

TEST(ForeignJsonTest, ManifestEpochMinusOneIsCorruption) {
  ASSERT_TRUE(ManifestWith("3", "1").ok());
  EXPECT_TRUE(ManifestWith("-1", "1").status().IsCorruption());
  EXPECT_TRUE(ManifestWith("1.5", "1").status().IsCorruption());
  EXPECT_TRUE(
      ManifestWith("18446744073709551616", "1").status().IsCorruption());
}

TEST(ForeignJsonTest, ManifestClipId1e10IsCorruption) {
  EXPECT_TRUE(ManifestWith("3", "1e10").status().IsCorruption());
  EXPECT_TRUE(ManifestWith("3", "-2147483649").status().IsCorruption());
  EXPECT_TRUE(ManifestWith("3", "\"1\"").status().IsCorruption());
  EXPECT_TRUE(ParseEpochManifest(
                  R"({"camera":"camA","epoch":1,"segments":[)"
                  R"({"file":"camA.seg0","clips":[0],"bags":1e30}]})",
                  kManifestPath)
                  .status()
                  .IsCorruption());
}

// Finding: the manifest decoder took a segment "file" of
// "../../etc/passwd", and the cold load read snapshot_dir + "/" + file.
TEST(ForeignJsonTest, ManifestSegmentFileMustBeANameInTheSnapshotDir) {
  for (const char* bad : {"../../etc/passwd", "..", ".", "", "a/b", "/abs",
                          "seg\\u0000x"}) {
    SCOPED_TRACE(bad);
    EXPECT_TRUE(ManifestWith("3", "1", bad).status().IsCorruption());
  }
  // The writer names segments after the sanitized camera id, which may
  // hold dots: "cam..1" writes "cam..1.seg0.mivpack".
  Result<EpochManifest> dotted = ManifestWith("3", "1", "cam..1.seg0.mivpack");
  ASSERT_TRUE(dotted.ok()) << dotted.status().ToString();
  EXPECT_EQ(dotted->segments.at(0).file, "cam..1.seg0.mivpack");
}

TEST(ForeignJsonTest, HistogramCountMinusOneIsInvalidArgument) {
  for (const char* count : {"-1", "1.5", "1e30", "\"3\""}) {
    SCOPED_TRACE(count);
    Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(Element(
        StrFormat(R"({"histograms":{"h":{"count":%s}}})", count)));
    EXPECT_TRUE(snapshot.status().IsInvalidArgument());
    EXPECT_EQ(snapshot.status().message(),
              "metrics snapshot: histogram h has a bad count");
  }
  Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(
      Element(R"({"histograms":{"h":{"count":3,"buckets":[1,1e30]}}})"));
  EXPECT_EQ(snapshot.status().message(),
            "metrics snapshot: histogram h has a bad bucket count");
  snapshot = MetricsSnapshotFromWireJson(
      Element(R"({"histograms":{"h":{"count":3,"buckets":[1,2]}}})"));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->histograms.at("h").count, 3u);
}

TEST(ForeignJsonTest, Counter1e30IsInvalidArgument) {
  for (const char* value : {"1e30", "-1", "0.5", "18446744073709551616"}) {
    SCOPED_TRACE(value);
    Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(
        Element(StrFormat(R"({"counters":{"c":%s}})", value)));
    EXPECT_EQ(snapshot.status().message(),
              "metrics snapshot: counter c not a non-negative number");
  }
  Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(
      Element(R"({"counters":{"c":9007199254740992}})"));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->counters.at("c"), uint64_t{1} << 53);
}

TEST(ForeignJsonTest, TraceClockAnchorOutOfRangeReadsAsNoEpoch) {
  auto trace = [](const char* epoch, int ts) {
    ProcessTrace input;
    input.label = epoch;
    input.doc = Element(StrFormat(
        R"({"traceEvents":[{"name":"clock_sync","ph":"M",)"
        R"("args":{"wall_epoch_us":%s}},{"name":"e","ph":"X","ts":%d}]})",
        epoch, ts));
    return input;
  };
  for (const char* bad : {"-1", "1e30", "0.5"}) {
    SCOPED_TRACE(bad);
    Result<std::string> stitched =
        StitchChromeTraces({trace("1000", 5), trace(bad, 7)});
    ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
    const JsonValue doc = Element(stitched.value());
    // The unanchored process keeps its own timeline: ts 7, not rebased.
    std::vector<double> ts;
    for (const JsonValue& event : doc.Find("traceEvents")->array) {
      if (const JsonValue* t = event.Find("ts")) ts.push_back(t->number);
    }
    EXPECT_EQ(ts, (std::vector<double>{5, 7}));
  }
}

/// A worker rank reply holding one ranking item.
std::string RankReplyWith(const std::string& item) {
  return R"({"ok":true,"cmd":"rank","session":"s","total":9,"ranking":[)"
         R"({"bag":4,"score":0.75},)" +
         item + "]}";
}

TEST(ForeignJsonTest, RankItemWithUnreadableBagIsDataLoss) {
  std::vector<ClusterScoredBag> part;
  int64_t total = 0;
  const WorkerReply good =
      ReadWorkerReply(RankReplyWith(R"({"bag":2,"score":-1.5})"));
  ASSERT_TRUE(good.ok);
  ASSERT_TRUE(ReadRankReply(good.doc, "camX", &part, &total).ok());
  ASSERT_EQ(part.size(), 2u);
  EXPECT_EQ(part[1].bag_id, 2);
  EXPECT_EQ(part[1].score, -1.5);
  EXPECT_EQ(total, 9);

  for (const char* item :
       {R"({"bag":"x","score":0.5})", R"({"bag":1e10,"score":0.5})",
        R"({"bag":1.5,"score":0.5})", R"({"bag":-2147483649,"score":0.5})",
        R"({"score":0.5})", R"({"bag":3})", R"({"bag":3,"score":"0.5"})",
        R"({"bag":3,"score":null})", R"("x")", "7"}) {
    SCOPED_TRACE(item);
    const WorkerReply reply = ReadWorkerReply(RankReplyWith(item));
    ASSERT_TRUE(reply.ok);
    part.clear();
    total = 0;
    const Status read = ReadRankReply(reply.doc, "camX", &part, &total);
    EXPECT_TRUE(read.IsDataLoss()) << read.ToString();
    EXPECT_EQ(read.message(),
              "rank on camera 'camX' failed: ranking item 1 has no int bag "
              "and finite score");
  }
}

TEST(ForeignJsonTest, WorkerReplyReaderReadsOkCodeAndErrorOnce) {
  WorkerReply reply = ReadWorkerReply(R"({"ok":true,"cmd":"ping"})");
  EXPECT_TRUE(reply.parsed);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, "OK");
  EXPECT_EQ(reply.line, R"({"ok":true,"cmd":"ping"})");

  reply = ReadWorkerReply(
      R"({"ok":false,"code":"NOT_FOUND","error":"session 's' is not open"})");
  EXPECT_TRUE(reply.parsed);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "NOT_FOUND");
  EXPECT_EQ(reply.error, "session 's' is not open");

  // Neither "ok":1 nor a string "true" is a success.
  for (const char* line : {R"({"ok":1})", R"({"ok":"true"})", "[true]",
                           R"({"error":7})"}) {
    SCOPED_TRACE(line);
    reply = ReadWorkerReply(line);
    EXPECT_TRUE(reply.parsed);
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.code, "");
    EXPECT_EQ(reply.error, line);  // no "error" string: the whole line
  }
  reply = ReadWorkerReply(R"({"ok":true,"cmd":"rank","ranki)");
  EXPECT_FALSE(reply.parsed);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, reply.line);
}

/// Number spellings aimed at the integer fields of the decoders below.
const char* const kIntEdges[] = {
    "-1",   "1e10", "1e30", "-1e30", "0.5", "-0", "2147483648",
    "-2147483649", "9223372036854775808", "18446744073709551616",
    "9007199254740993"};

/// One fuzz input: a byte-level mutation, a JSON-aware one, or a number
/// swapped for an integer edge, sometimes followed by a second mutation.
std::string MutateForeign(const std::vector<std::string>& corpus, Rng* rng) {
  const std::string& base = corpus[rng->UniformInt(0, corpus.size() - 1)];
  const std::string& other = corpus[rng->UniformInt(0, corpus.size() - 1)];
  std::string input;
  switch (rng->UniformInt(0, 2)) {
    case 0:
      input = test::Mutate(base, other, rng);
      break;
    case 1:
      input = MutateJson(base, rng);
      break;
    default:
      input = base;
      SwapNumber(&input, kIntEdges, rng);
      break;
  }
  if (rng->UniformInt(0, 3) == 0) input = test::Mutate(input, other, rng);
  return input;
}

TEST(ForeignJsonTest, MutatedManifestsReadOkOrCorruption) {
  TempDir dir("mivid_manifest_fuzz");
  fs::create_directories(dir.path());
  EpochManifest manifest;
  manifest.camera_id = "camA";
  manifest.epoch = 7;
  manifest.segments = {{"camA.seg0.mivpack", {0, 1, 2}, 41},
                       {"camA.seg1.mivpack", {3}, 12},
                       {"camA.seg2.mivpack", {4, 5}, 2147483647}};
  const std::string path = dir.path() + "/camA.manifest.json";
  ASSERT_TRUE(WriteEpochManifest(manifest, path).ok());
  Result<EpochManifest> read = ReadEpochManifest(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->epoch, 7u);
  EXPECT_EQ(read->AllClips(), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(read->segments.at(2).bag_count, 2147483647);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  const std::vector<std::string> corpus = {bytes.value()};
  Rng rng(20261021);
  int accepted = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const std::string input = MutateForeign(corpus, &rng);
    Result<EpochManifest> parsed = ParseEpochManifest(input, path);
    if (!parsed.ok()) {
      ASSERT_TRUE(parsed.status().IsCorruption() ||
                  parsed.status().IsInvalidArgument())
          << "iteration " << iter << ": " << parsed.status().ToString();
      continue;
    }
    ++accepted;
    for (const EpochSegment& seg : parsed->segments) {
      ASSERT_FALSE(seg.file.empty()) << "iteration " << iter;
      ASSERT_EQ(seg.file.find('/'), std::string::npos) << "iteration " << iter;
      ASSERT_NE(seg.file, "..") << "iteration " << iter;
    }
  }
  EXPECT_GT(accepted, 500);
}

MetricsSnapshot FuzzSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters["serve/requests"] = 1234;
  snapshot.counters["cluster/worker/127.0.0.1:9/requests"] = uint64_t{1} << 53;
  snapshot.gauges["serve/sessions_open"] = 3;
  snapshot.gauges["svm/cache_hit_ratio"] = 0.625;
  HistogramStats stats;
  stats.count = 5;
  stats.sum = 0.0125;
  stats.min = 0.001;
  stats.max = 0.005;
  stats.p50 = 0.002;
  stats.p95 = 0.005;
  stats.p99 = 0.005;
  stats.buckets = {0, 1, 3, 0, 1};
  snapshot.histograms["serve/rank_seconds"] = stats;
  snapshot.histograms["serve/empty_seconds"] = HistogramStats{};
  return snapshot;
}

TEST(ForeignJsonTest, MutatedMetricsSnapshotsReadOkOrInvalidArgument) {
  const std::string wire = MetricsSnapshotToWireJson(FuzzSnapshot());
  Result<MetricsSnapshot> read = MetricsSnapshotFromWireJson(Element(wire));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(MetricsSnapshotToWireJson(read.value()), wire);

  const std::vector<std::string> corpus = {wire};
  Rng rng(20261022);
  int accepted = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const std::string input = MutateForeign(corpus, &rng);
    Result<JsonValue> doc = ParseJson(input);
    if (!doc.ok()) continue;
    Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(doc.value());
    if (!snapshot.ok()) {
      ASSERT_TRUE(snapshot.status().IsInvalidArgument())
          << "iteration " << iter << ": " << snapshot.status().ToString();
      continue;
    }
    ++accepted;
    // What was read merges and re-serializes without trouble.
    const MetricsSnapshot merged =
        MergeMetricsSnapshots({snapshot.value(), snapshot.value()});
    ASSERT_TRUE(ParseJson(MetricsSnapshotToWireJson(merged)).ok())
        << "iteration " << iter;
  }
  EXPECT_GT(accepted, 500);
}

/// A worker's replies to open, rank, feedback, refresh, metrics and an
/// unknown session, captured from a server that ingests a short live
/// clip first.
std::vector<std::string> CapturedWorkerReplies() {
  TempDir dir("mivid_reply_fuzz");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  EXPECT_TRUE(opened.ok());
  if (!opened.ok()) return {};
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  RetrievalServer server(db.get(), ServeOptions{});

  TunnelScenarioOptions scenario;
  scenario.total_frames = 300;
  scenario.num_wall_crashes = 1;
  scenario.num_sudden_stops = 1;
  scenario.seed = 9;
  TrafficWorld world(MakeTunnelScenario(scenario));
  const GroundTruth gt = world.Run();
  EXPECT_NE(server
                .HandleLine(test::IngestLine(
                    "camF", test::FramesFromTracks(gt.tracks, gt.total_frames),
                    gt.incidents, true, true))
                .find("\"ok\":true"),
            std::string::npos);

  std::vector<std::string> replies;
  for (const char* line :
       {R"({"cmd":"open","session":"fz","camera":"camF"})",
        R"({"cmd":"rank","session":"fz","top":6})",
        R"({"cmd":"feedback","session":"fz","labels":[{"bag":0,"label":"relevant"}]})",
        R"({"cmd":"refresh","session":"fz"})",
        R"({"cmd":"metrics"})",
        R"({"cmd":"rank","session":"nosuch"})"}) {
    replies.push_back(server.HandleLine(line));
  }
  return replies;
}

TEST(ForeignJsonTest, MutatedWorkerRepliesReadOkOrCleanError) {
  const std::vector<std::string> corpus = CapturedWorkerReplies();
  ASSERT_EQ(corpus.size(), 6u);
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    ASSERT_TRUE(ReadWorkerReply(corpus[i]).ok) << corpus[i];
  }
  EXPECT_EQ(ReadWorkerReply(corpus.back()).code, "NOT_FOUND");
  {
    const WorkerReply rank = ReadWorkerReply(corpus[1]);
    std::vector<ClusterScoredBag> part;
    int64_t total = 0;
    ASSERT_TRUE(ReadRankReply(rank.doc, "camF", &part, &total).ok());
    EXPECT_EQ(part.size(), 6u);
    EXPECT_GT(total, 6);
  }

  Rng rng(20261023);
  int ok_replies = 0;
  int ranks_read = 0;
  int items_refused = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const std::string input = MutateForeign(corpus, &rng);
    const WorkerReply reply = ReadWorkerReply(input);
    ASSERT_EQ(reply.line, input);
    ASSERT_EQ(reply.parsed, ParseJson(input).ok()) << "iteration " << iter;
    if (!reply.parsed) {
      ASSERT_FALSE(reply.ok);
      ASSERT_EQ(reply.error, input);
      continue;
    }
    if (!reply.ok) continue;
    ++ok_replies;
    ASSERT_EQ(reply.code, "OK");
    std::vector<ClusterScoredBag> part;
    int64_t total = 0;
    const Status read = ReadRankReply(reply.doc, "camF", &part, &total);
    if (read.ok()) {
      ++ranks_read;
      for (const ClusterScoredBag& bag : part) {
        ASSERT_TRUE(std::isfinite(bag.score)) << "iteration " << iter;
      }
    } else {
      ASSERT_TRUE(read.IsDataLoss())
          << "iteration " << iter << ": " << read.ToString();
      ++items_refused;
    }
    if (const JsonValue* metrics = reply.doc.Find("metrics")) {
      Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(*metrics);
      ASSERT_TRUE(snapshot.ok() || snapshot.status().IsInvalidArgument())
          << "iteration " << iter << ": " << snapshot.status().ToString();
    }
  }
  EXPECT_GT(ok_replies, 1000);
  EXPECT_GT(ranks_read, 1000);
  EXPECT_GT(items_refused, 20);
}

}  // namespace
}  // namespace mivid
