// FeatureStore: binary persistence of per-clip derived data.
//
// What the database keeps per clip is exactly what the retrieval engine
// needs: the tracked trajectories (from which features and windows are
// recomputed cheaply) plus the incident annotations (ground truth used by
// the evaluation oracle; in a deployment these would be curator labels).
// Each file carries a magic + CRC32C envelope and a version.

#ifndef MIVID_DB_FEATURE_STORE_H_
#define MIVID_DB_FEATURE_STORE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "trafficsim/incident.h"
#include "trajectory/trajectory.h"

namespace mivid {

/// Serializes tracks into a checksummed blob.
std::string SerializeTracks(const std::vector<Track>& tracks);

/// Parses a blob written by SerializeTracks.
Result<std::vector<Track>> DeserializeTracks(const std::string& bytes);

/// Serializes incident annotations into a checksummed blob.
std::string SerializeIncidents(const std::vector<IncidentRecord>& incidents);

/// Parses a blob written by SerializeIncidents.
Result<std::vector<IncidentRecord>> DeserializeIncidents(
    const std::string& bytes);

}  // namespace mivid

#endif  // MIVID_DB_FEATURE_STORE_H_
