#include "svm/kernel_cache.h"

#include <algorithm>

#include "linalg/packed_matrix.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

uint64_t PackId(InstanceKey key) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(key.bag_id)) << 32) |
         static_cast<uint32_t>(key.instance_id);
}

}  // namespace

uint32_t KernelCache::RowFor(InstanceKey key) {
  const uint64_t packed = PackId(key);
  auto [it, inserted] =
      row_of_.emplace(packed, static_cast<uint32_t>(row_of_.size()));
  if (inserted) {
    ++rows_;
    if (rows_ > cap_) Grow(rows_);
  }
  return it->second;
}

void KernelCache::Grow(size_t min_rows) {
  size_t new_cap = cap_ == 0 ? 64 : cap_ * 2;
  while (new_cap < min_rows) new_cap *= 2;
  std::vector<double> cache(new_cap * new_cap, 0.0);
  std::vector<uint8_t> valid(new_cap * new_cap, 0);
  for (size_t r = 0; r < cap_; ++r) {
    std::copy_n(cache_.begin() + r * cap_, cap_, cache.begin() + r * new_cap);
    std::copy_n(valid_.begin() + r * cap_, cap_, valid.begin() + r * new_cap);
  }
  cache_ = std::move(cache);
  valid_ = std::move(valid);
  cap_ = new_cap;
}

Matrix KernelCache::PairwiseSquaredDistances(
    const std::vector<Vec>& points, const std::vector<InstanceKey>& ids) {
  MIVID_TRACE_SPAN("svm/kernel_cache");
  const size_t n = points.size();
  Matrix d2(n, n, 0.0);
  if (n == 0) return d2;
  const uint64_t hits_before = hits_;
  const uint64_t misses_before = misses_;

  // Phase 1: map ids to union rows, count hits/misses, and pick the dirty
  // set — a greedy cover of the invalid pairs by whole query points.
  // Scanning j ascending: if pair (i, j) is invalid and i is not already
  // dirty, j goes dirty; invalid pairs whose i is dirty are covered by
  // i's row recompute. Afterwards every invalid pair has at least one
  // dirty endpoint.
  std::vector<uint32_t> row(n);
  for (size_t i = 0; i < n; ++i) row[i] = RowFor(ids[i]);
  std::vector<uint8_t> dirty(n, 0);
  for (size_t j = 0; j < n; ++j) {
    const uint8_t* valid_row = valid_.data() + size_t{row[j]} * cap_;
    for (size_t i = 0; i < j; ++i) {
      if (valid_row[row[i]]) {
        ++hits_;
      } else {
        ++misses_;
        if (!dirty[i]) dirty[j] = 1;
      }
    }
  }
  std::vector<size_t> dirty_list;
  for (size_t j = 0; j < n; ++j) {
    if (dirty[j]) dirty_list.push_back(j);
  }

  if (!dirty_list.empty()) {
    // Phase 2: stream each dirty point's full-width distance row against
    // a packed copy of the query set and publish it at once. A pair whose
    // ends are both dirty is published by the first of them; the expanded
    // formula is exactly symmetric, so the second would produce the same
    // bits.
    std::vector<const Vec*> ptrs(n);
    for (size_t i = 0; i < n; ++i) ptrs[i] = &points[i];
    const PackedFeatureMatrix packed =
        PackedFeatureMatrix::FromPoints(ptrs, points[0].size());
    const double* norms = packed.squared_norms();
    const SimdOpsTable& ops = SimdOps();
    std::vector<double> fresh(n);
    for (const size_t q : dirty_list) {
      ops.expanded_d2_row(points[q].data(), norms[q], packed.dim(),
                          packed.data(), packed.stride(), norms, n,
                          fresh.data());
      const size_t rq = row[q];
      for (size_t i = 0; i < n; ++i) {
        if (i == q) continue;
        const size_t ri = row[i];
        if (!ValidAt(rq, ri)) {
          CacheAt(rq, ri) = fresh[i];
          CacheAt(ri, rq) = fresh[i];
          ValidAt(rq, ri) = 1;
          ValidAt(ri, rq) = 1;
          ++entries_;
        }
      }
    }
  }

  // Gather the result from the union matrix (diagonal is exactly 0).
  for (size_t i = 0; i < n; ++i) {
    const double* cache_row = cache_.data() + size_t{row[i]} * cap_;
    for (size_t j = 0; j < n; ++j) {
      d2.At(i, j) = (i == j) ? 0.0 : cache_row[row[j]];
    }
  }
  MIVID_METRIC_COUNT("kernel_cache/hits", hits_ - hits_before);
  MIVID_METRIC_COUNT("kernel_cache/misses", misses_ - misses_before);
  return d2;
}

void KernelCache::Clear() {
  row_of_.clear();
  rows_ = 0;
  cap_ = 0;
  cache_.clear();
  valid_.clear();
  entries_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace mivid
