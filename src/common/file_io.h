// Whole-file helpers shared by every store that persists a file in one
// piece (catalog, clip files, models, packed corpora, manifests, metric
// and trace exports, session-journal compaction).

#ifndef MIVID_COMMON_FILE_IO_H_
#define MIVID_COMMON_FILE_IO_H_

#include <string>

#include "common/status.h"

namespace mivid {

/// Replaces `path` with `bytes`: writes a temp file next to it, then
/// renames it over `path`, so a reader sees the old file or the new one,
/// never a mix. The temp name carries the pid, so processes writing the
/// same path over a shared directory never interleave into one temp
/// file. Nothing is fsynced: after a power loss the file may be short.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads all of `path`; IOError when it cannot be opened or read.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace mivid

#endif  // MIVID_COMMON_FILE_IO_H_
