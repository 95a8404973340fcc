// Epoch manifest: the on-disk index of a camera's appendable
// packed-corpus segments.
//
// A frozen camera has one segment (its whole corpus); every epoch
// publish with new streamed clips appends another. The manifest records
// the segment files in append order together with the clip ids each
// one covers, so a restarting daemon can rebuild the published epoch
// by concatenating segments (each verified by packed_corpus_io's CRCs
// and QueryOptions fingerprint) and only extract clips that arrived
// after the last publish. A missing or stale manifest is never fatal —
// the loader falls back to full extraction and rewrites it.
//
// File: <snapshot_dir>/<camera>.manifest.json, one JSON object,
// written atomically (temp + rename):
//   {"camera":"camA","epoch":3,
//    "segments":[{"file":"camA.seg0.mivpack","clips":[0,1],"bags":12}]}
// A segment "file" is a name inside the snapshot dir, never a path.

#ifndef MIVID_DB_EPOCH_MANIFEST_H_
#define MIVID_DB_EPOCH_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mivid {

struct EpochSegment {
  std::string file;           ///< segment file name (manifest-relative)
  std::vector<int> clip_ids;  ///< clips whose bags the segment holds
  int bag_count = 0;
};

struct EpochManifest {
  std::string camera_id;
  uint64_t epoch = 0;
  std::vector<EpochSegment> segments;

  /// All covered clip ids in segment order.
  std::vector<int> AllClips() const;
};

Status WriteEpochManifest(const EpochManifest& manifest,
                          const std::string& path);

/// Reads the manifest at `path`. Corruption for anything this process
/// would not have written: a missing field, a number that is not an
/// integer of its field's type (epoch uint64, clip ids and bags int), or
/// a segment file that is not one name inside the snapshot dir (empty,
/// "." or "..", or holding '/' or NUL). ParseJson's InvalidArgument for
/// bytes that are not JSON. Callers treat any error as "no manifest".
Result<EpochManifest> ReadEpochManifest(const std::string& path);

/// ReadEpochManifest's decoder on bytes already read; `path` only names
/// the file in error messages.
Result<EpochManifest> ParseEpochManifest(std::string_view bytes,
                                         const std::string& path);

}  // namespace mivid

#endif  // MIVID_DB_EPOCH_MANIFEST_H_
