// Test helpers that stream stored tracks through the wire `ingest`
// command: replay ground-truth tracks as per-frame observations and
// serialize a frame batch as one request line.

#ifndef MIVID_TESTS_INGEST_LINES_H_
#define MIVID_TESTS_INGEST_LINES_H_

#include <string>
#include <vector>

#include "common/string_util.h"
#include "ingest/stream_types.h"
#include "trafficsim/incident.h"
#include "trajectory/trajectory.h"

namespace mivid::test {

/// Replays stored tracks as the per-frame observation stream a live
/// tracker front end would deliver. `frame_offset` shifts the clip into
/// absolute stream frames.
inline std::vector<FrameObservations> FramesFromTracks(
    const std::vector<Track>& tracks, int total_frames, int frame_offset = 0) {
  std::vector<FrameObservations> frames(total_frames);
  for (int f = 0; f < total_frames; ++f) {
    frames[f].frame = frame_offset + f;
  }
  for (const Track& track : tracks) {
    for (const TrackPoint& point : track.points) {
      if (point.frame < 0 || point.frame >= total_frames) continue;
      TrackObservation obs;
      obs.track_id = track.id;
      obs.centroid = point.centroid;
      obs.bbox = point.bbox;
      frames[point.frame].observations.push_back(obs);
    }
  }
  return frames;
}

/// Serializes a frame batch as one `ingest` request line. %.17g keeps
/// the JSON round-trip of every coordinate bit-exact.
inline std::string IngestLine(const std::string& camera,
                              const std::vector<FrameObservations>& frames,
                              const std::vector<IncidentRecord>& incidents,
                              bool cut, bool publish) {
  std::string line = "{\"cmd\":\"ingest\",\"v\":\"1.1\",\"camera\":\"" +
                     camera + "\",\"frames\":[";
  for (size_t f = 0; f < frames.size(); ++f) {
    if (f > 0) line += ',';
    line += "{\"frame\":" + std::to_string(frames[f].frame) + ",\"obs\":[";
    for (size_t o = 0; o < frames[f].observations.size(); ++o) {
      const TrackObservation& obs = frames[f].observations[o];
      if (o > 0) line += ',';
      line += StrFormat(
          "{\"track\":%d,\"x\":%.17g,\"y\":%.17g,"
          "\"bbox\":[%.17g,%.17g,%.17g,%.17g]}",
          obs.track_id, obs.centroid.x, obs.centroid.y, obs.bbox.min_x,
          obs.bbox.min_y, obs.bbox.max_x, obs.bbox.max_y);
    }
    line += "]}";
  }
  line += "],\"incidents\":[";
  for (size_t i = 0; i < incidents.size(); ++i) {
    if (i > 0) line += ',';
    line += StrFormat("{\"type\":\"%s\",\"begin\":%d,\"end\":%d,\"vehicles\":[",
                      IncidentTypeName(incidents[i].type),
                      incidents[i].begin_frame, incidents[i].end_frame);
    for (size_t v = 0; v < incidents[i].vehicle_ids.size(); ++v) {
      if (v > 0) line += ',';
      line += std::to_string(incidents[i].vehicle_ids[v]);
    }
    line += "]}";
  }
  line += "],\"cut\":";
  line += cut ? "true" : "false";
  line += ",\"publish\":";
  line += publish ? "true" : "false";
  line += "}";
  return line;
}

}  // namespace mivid::test

#endif  // MIVID_TESTS_INGEST_LINES_H_
