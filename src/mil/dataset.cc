#include "mil/dataset.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace mivid {

MilBag BuildBag(const VideoSequence& vs, int bag_id,
                const FeatureScaler& scaler, bool include_velocity) {
  MilBag bag;
  bag.id = bag_id;
  for (const auto& ts : vs.ts) {
    MilInstance inst;
    inst.bag_id = bag_id;
    inst.instance_id = ts.track_id;
    inst.features = ts.Flatten(scaler, include_velocity);
    inst.raw_features = ts.FlattenRaw(include_velocity);
    bag.instances.push_back(std::move(inst));
  }
  return bag;
}

MilDataset MilDataset::FromVideoSequences(
    const std::vector<VideoSequence>& windows, const FeatureScaler& scaler,
    bool include_velocity) {
  MilDataset ds;
  for (const auto& vs : windows) {
    // Every TS spans the slicer's window through one scaler, so all
    // instances share one dimension unless the windows mix slicers.
    const Status added =
        ds.AddBag(BuildBag(vs, vs.vs_id, scaler, include_velocity));
    MIVID_CHECK(added.ok()) << added.ToString();
  }
  return ds;
}

Status MilDataset::AddBag(MilBag bag) {
  std::optional<size_t> dim = dim_;
  for (const MilInstance& inst : bag.instances) {
    if (!dim) {
      dim = inst.features.size();
    } else if (inst.features.size() != *dim) {
      return Status::InvalidArgument(StrFormat(
          "bag %d instance %d has %zu features; the corpus has %zu", bag.id,
          inst.instance_id, inst.features.size(), *dim));
    }
  }
  dim_ = dim;
  bags_.push_back(std::move(bag));
  packed_.reset();  // the cached SoA lowering no longer matches
  return Status::OK();
}

const MilBag* MilDataset::FindBag(int bag_id) const {
  for (const auto& b : bags_) {
    if (b.id == bag_id) return &b;
  }
  return nullptr;
}

Status MilDataset::SetLabel(int bag_id, BagLabel label) {
  for (auto& b : bags_) {
    if (b.id == bag_id) {
      b.label = label;
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no bag with id %d", bag_id));
}

std::vector<const MilBag*> MilDataset::BagsWithLabel(BagLabel label) const {
  std::vector<const MilBag*> out;
  for (const auto& b : bags_) {
    if (b.label == label) out.push_back(&b);
  }
  return out;
}

size_t MilDataset::CountLabel(BagLabel label) const {
  size_t n = 0;
  for (const auto& b : bags_) n += b.label == label ? 1 : 0;
  return n;
}

size_t MilDataset::TotalInstances() const {
  size_t n = 0;
  for (const auto& b : bags_) n += b.instances.size();
  return n;
}

void MilDataset::ResetLabels() {
  for (auto& b : bags_) b.label = BagLabel::kUnlabeled;
}

}  // namespace mivid
