// Zero-copy packed-corpus snapshots.
//
// Building a CameraCorpus (QueryEngine::BuildCorpus) re-derives tracks,
// features, and windows from the stored clips on every daemon start. A
// snapshot file captures the finished corpus so a restart serves sessions
// immediately: the instance-feature block is stored in the packed SoA
// layout of PackedFeatureMatrix, page-aligned, and is mapped read-only
// straight into the ranking pipeline (PackedFeatureMatrix::View +
// MilDataset::AdoptPacked) — the hot Gram/decision-value path reads the
// file's pages with no copy and no parse. Bag structure, raw features,
// provenance, and oracle labels live in a codec-encoded metadata blob
// after the feature block.
//
// Layout (fixed-width little-endian header, CRC32C over each region):
//
//   [0,  8)  magic "MIVPCK01"
//   [8, 12)  raw u32 0x01020304 (byte-order probe for the double block)
//   [12,16)  u32 page size used for feature alignment
//   [16,24)  u64 QueryOptions fingerprint
//   [24,32)  u64 n   (instances)
//   [32,40)  u64 dim
//   [40,48)  u64 stride (PackedFeatureMatrix::StrideFor(n))
//   [48,56)  u64 feature block offset (page aligned)
//   [56,64)  u64 feature block bytes (dim * stride * 8)
//   [64,72)  u64 metadata offset
//   [72,80)  u64 metadata bytes
//   [80,84)  u32 CRC32C(feature block)
//   [84,88)  u32 CRC32C(metadata)
//   [88,92)  u32 CRC32C(header [0,88))

#ifndef MIVID_DB_PACKED_CORPUS_IO_H_
#define MIVID_DB_PACKED_CORPUS_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "db/query_engine.h"

namespace mivid {

/// A stable fingerprint of every QueryOptions field that changes corpus
/// content (feature extraction, windowing, relevant incident types).
/// Snapshots written under a different fingerprint are rejected on load.
uint64_t QueryOptionsFingerprint(const QueryOptions& options);

/// Writes `corpus` as a snapshot at `path` (write-to-temp + rename).
Status WritePackedCorpusFile(const CameraCorpus& corpus,
                             const std::string& path,
                             const QueryOptions& options);

/// Loads a snapshot written by WritePackedCorpusFile. The feature block
/// is mmap'd and adopted zero-copy as the dataset's packed corpus (the
/// mapping is pinned by the returned corpus); per-instance AoS vectors
/// are materialized from it for the non-packed code paths. Fails with
/// FailedPrecondition when `options` does not match the stored
/// fingerprint, and Corruption/DataLoss on structural damage.
Result<std::shared_ptr<const CameraCorpus>> ReadPackedCorpusFile(
    const std::string& path, const QueryOptions& options);

}  // namespace mivid

#endif  // MIVID_DB_PACKED_CORPUS_IO_H_
