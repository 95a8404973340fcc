// Exact scatter-gather top-k merging for the cluster coordinator.
//
// Each worker answers a rank request with its *exact* per-corpus top-k
// (RetrievalSession::CurrentTopK: the first k entries of that corpus's
// full ranking). Every bag a worker leaves out ranks below the k it sends,
// so it cannot reach the global top-k either; merging the partial lists
// and truncating to k therefore yields exactly the global top-k. The
// merge comparator extends the engines' (score desc, bag asc) order with
// the camera id, so a merged ranking is a deterministic function of the
// per-corpus rankings — bit-identical however the corpora are sharded,
// and identical to merging single-process per-camera rankings.

#ifndef MIVID_CLUSTER_MERGER_H_
#define MIVID_CLUSTER_MERGER_H_

#include <string>
#include <vector>

namespace mivid {

/// One scored bag qualified by its corpus (camera).
struct ClusterScoredBag {
  std::string camera;
  int bag_id = 0;
  double score = 0.0;
};

/// Merge order: score desc, then camera asc, then bag asc.
bool ClusterRankLess(const ClusterScoredBag& a, const ClusterScoredBag& b);

/// Merges per-worker rankings (each already sorted by score desc / bag
/// asc within one camera) into the global order, truncated to `k`
/// entries (k == 0 means no limit). K-way heap merge: O(total log
/// parts), no full re-sort.
std::vector<ClusterScoredBag> MergeTopK(
    std::vector<std::vector<ClusterScoredBag>> parts, size_t k);

}  // namespace mivid

#endif  // MIVID_CLUSTER_MERGER_H_
