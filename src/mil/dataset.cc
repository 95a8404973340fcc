#include "mil/dataset.h"

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
    ds.AddBag(BuildBag(vs, vs.vs_id, scaler, include_velocity));
  }
  return ds;
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
