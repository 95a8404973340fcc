// Tests for the wire number codec and the JSON decoders that read it:
//
//  * JsonNumberCodecTest: the one number writer (AppendDouble) prints
//    printf("%.17g")'s bytes, every wire writer routes through it, and
//    ParseDouble reads every finite double back bit-identically,
//  * JsonFuzzTest: seeded mutations of request lines and a rank reply
//    captured from a live server, fed to ParseJson and
//    ParseServeRequest, plus one named regression test per finding.

#include <unistd.h>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "db/video_db.h"
#include "fuzz_mutate.h"
#include "ingest_lines.h"
#include "obs/json.h"
#include "obs/metrics_wire.h"
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

/// A JSON-aware edit: swap one number for an edge spelling, open a run
/// of brackets (deep nesting), or repeat a member.
std::string MutateJson(const std::string& input, Rng* rng) {
  std::string out = input;
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n)));
  };
  switch (rng->UniformInt(0, 2)) {
    case 0: {
      const size_t at = out.find_first_of("-0123456789", pick(out.size()));
      if (at == std::string::npos) break;
      const size_t end = out.find_first_not_of("+-.0123456789eE", at);
      const char* edge =
          kEdgeNumbers[rng->UniformInt(0, std::size(kEdgeNumbers) - 1)];
      out.replace(at, (end == std::string::npos ? out.size() : end) - at, edge);
      break;
    }
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

}  // namespace
}  // namespace mivid
