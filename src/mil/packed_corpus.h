// PackedCorpus: the SoA lowering of a MilDataset's instance features.
//
// Ranking scores every instance of every bag each round; chasing the
// per-instance Vec allocations makes that loop memory-bound. A corpus is
// lowered once into a PackedFeatureMatrix (all instances flattened in
// bag order) plus per-bag offsets, and every ranking pass streams the
// packed block through the SIMD batch primitives instead. The packing is
// pure layout: feature values are copied verbatim, so scores computed
// from the packed view are bit-identical to the per-Vec path. Every
// corpus packs: MilDataset::AddBag refuses a bag whose instances differ
// in dimension from the corpus.

#ifndef MIVID_MIL_PACKED_CORPUS_H_
#define MIVID_MIL_PACKED_CORPUS_H_

#include <memory>
#include <vector>

#include "linalg/packed_matrix.h"
#include "mil/bag.h"

namespace mivid {

struct PackedCorpus {
  /// All instances of all bags, flattened in (bag, instance) order.
  PackedFeatureMatrix features;
  /// bag_begin[b] .. bag_begin[b+1] are bag b's columns in `features`
  /// (size = bag count + 1).
  std::vector<size_t> bag_begin;
};

/// Lowers `bags`, whose instances all share one feature dimension, into
/// a packed corpus.
std::shared_ptr<const PackedCorpus> BuildPackedCorpus(
    const std::vector<MilBag>& bags);

}  // namespace mivid

#endif  // MIVID_MIL_PACKED_CORPUS_H_
