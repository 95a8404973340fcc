#include "mil/packed_corpus.h"

namespace mivid {

std::shared_ptr<const PackedCorpus> BuildPackedCorpus(
    const std::vector<MilBag>& bags) {
  auto corpus = std::make_shared<PackedCorpus>();
  corpus->bag_begin.assign(1, 0);
  corpus->bag_begin.reserve(bags.size() + 1);
  std::vector<const Vec*> instances;
  for (const auto& bag : bags) {
    for (const auto& inst : bag.instances) instances.push_back(&inst.features);
    corpus->bag_begin.push_back(instances.size());
  }
  const size_t dim = instances.empty() ? 0 : instances[0]->size();
  corpus->features = PackedFeatureMatrix::FromPoints(instances, dim);
  return corpus;
}

}  // namespace mivid
