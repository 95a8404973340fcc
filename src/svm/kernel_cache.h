// Cross-round kernel cache for relevance-feedback sessions.
//
// Each feedback round retrains the One-class SVM on a training set that
// heavily overlaps the previous round's (the relevant bags accumulate).
// Recomputing the full Gram matrix every round therefore redoes O(H^2 d)
// work on pairs that did not change. This cache memoizes pairwise squared
// distances keyed by *stable instance ids* (bag_id, instance_id), which
// are invariant across rounds and across bandwidth changes:
//
//   K_rbf(i, j) = exp(-gamma (|u|^2 + |v|^2 - 2 u.v))
//
// only the gamma factor depends on sigma, so when auto_sigma re-tunes the
// bandwidth the cached distances stay valid and only the cheap exp() pass
// reruns (the sigma-dependent Gram values are never cached, which is what
// makes bandwidth invalidation a non-event).
//
// Storage is a growing dense "union matrix" over every instance the
// session has ever queried, with a validity mask per pair. Missing pairs
// are filled by streaming whole rows through the SIMD expanded-distance
// primitive (simd.h) against a packed SoA copy of the query points: a
// greedy cover picks the fewest query points whose full rows close all
// invalid pairs, those rows are computed and published, and the result
// matrix is then gathered with O(n^2) array reads — no hashing on the
// hot path. Distances use the same expanded formula and accumulation
// order as the uncached GramMatrix fast path, so cached and uncached
// Gram matrices are bit-identical.

#ifndef MIVID_SVM_KERNEL_CACHE_H_
#define MIVID_SVM_KERNEL_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"
#include "svm/kernel.h"

namespace mivid {

/// Stable identity of an instance across feedback rounds.
struct InstanceKey {
  int bag_id = -1;
  int instance_id = -1;
};

/// Session-scoped cache of pairwise squared distances between identified
/// instances. Not thread-safe.
class KernelCache {
 public:
  KernelCache() = default;

  /// Builds the full symmetric |points| x |points| squared-distance matrix,
  /// serving repeated pairs from the cache and computing missing pairs.
  /// `ids[i]` must be the stable identity of `points[i]`.
  Matrix PairwiseSquaredDistances(const std::vector<Vec>& points,
                                  const std::vector<InstanceKey>& ids);

  /// Drops everything (e.g. when the corpus is rebuilt).
  void Clear();

  size_t distance_entries() const { return entries_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  /// Union-matrix row for an instance id (first-seen order), growing the
  /// backing storage when a new id arrives.
  uint32_t RowFor(InstanceKey key);
  void Grow(size_t min_rows);

  double& CacheAt(size_t r, size_t c) { return cache_[r * cap_ + c]; }
  uint8_t& ValidAt(size_t r, size_t c) { return valid_[r * cap_ + c]; }

  std::unordered_map<uint64_t, uint32_t> row_of_;  // packed id -> union row
  size_t rows_ = 0;                 // union rows in use
  size_t cap_ = 0;                  // allocated square side
  std::vector<double> cache_;       // cap_ x cap_ squared distances
  std::vector<uint8_t> valid_;      // cap_ x cap_ validity mask
  size_t entries_ = 0;              // distinct valid pairs (r < c)
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace mivid

#endif  // MIVID_SVM_KERNEL_CACHE_H_
