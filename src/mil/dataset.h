// MilDataset: the corpus of bags a retrieval session works over.

#ifndef MIVID_MIL_DATASET_H_
#define MIVID_MIL_DATASET_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "event/sliding_window.h"
#include "mil/bag.h"
#include "mil/packed_corpus.h"

namespace mivid {

/// The bag builder: one bag per VS, one instance per TS carrying the
/// flattened normalized and raw feature vectors, with the bag id chosen
/// by the caller. MilDataset::FromVideoSequences (ids = vs ids) and
/// AppendClipBags (dense corpus ids) both build bags with it.
MilBag BuildBag(const VideoSequence& vs, int bag_id,
                const FeatureScaler& scaler, bool include_velocity);

/// Owns the bags of one corpus (one clip, or one camera's clips) and
/// tracks their feedback labels across relevance-feedback rounds.
class MilDataset {
 public:
  MilDataset() = default;

  /// Builds bags from extracted windows: one bag per VS, one instance per
  /// TS with the flattened normalized feature vector.
  static MilDataset FromVideoSequences(
      const std::vector<VideoSequence>& windows, const FeatureScaler& scaler,
      bool include_velocity);

  /// Adds `bag`. Every instance in a dataset has one feature dimension,
  /// fixed by the first instance added, so the corpus always packs into
  /// one SoA block; a bag with another dimension is InvalidArgument and
  /// leaves the dataset unchanged.
  Status AddBag(MilBag bag);

  size_t size() const { return bags_.size(); }
  const MilBag& bag(size_t i) const { return bags_[i]; }
  const std::vector<MilBag>& bags() const { return bags_; }

  /// Finds a bag by id; nullptr when absent.
  const MilBag* FindBag(int bag_id) const;

  /// Sets the feedback label for bag `bag_id`.
  Status SetLabel(int bag_id, BagLabel label);

  /// Bags currently carrying `label`.
  std::vector<const MilBag*> BagsWithLabel(BagLabel label) const;

  /// Count of bags carrying `label`.
  size_t CountLabel(BagLabel label) const;

  /// Total instance count across all bags.
  size_t TotalInstances() const;

  /// Clears all feedback labels (start a fresh session on the corpus).
  void ResetLabels();

  /// The SoA lowering of all instance features, built on first use and
  /// cached until AddBag invalidates it. Datasets are copied per session
  /// (the bags are identical), so copies share one packed corpus via the
  /// shared_ptr.
  std::shared_ptr<const PackedCorpus> EnsurePacked() const {
    if (!packed_) packed_ = BuildPackedCorpus(bags_);
    return packed_;
  }

  /// Installs a prebuilt packing (the zero-copy corpus loader). The
  /// caller guarantees it matches `bags()` exactly.
  void AdoptPacked(std::shared_ptr<const PackedCorpus> packed) {
    packed_ = std::move(packed);
  }

 private:
  std::vector<MilBag> bags_;
  /// The instances' feature dimension; unset until an instance is added.
  std::optional<size_t> dim_;
  /// Mutable: lowering the bags is a cache fill, not an observable state
  /// change; engines holding a `const MilDataset*` still need it.
  mutable std::shared_ptr<const PackedCorpus> packed_;
};

}  // namespace mivid

#endif  // MIVID_MIL_DATASET_H_
