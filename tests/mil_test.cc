// Tests for mil/: bag-label semantics (Eq. 3-4) and the dataset.

#include <gtest/gtest.h>

#include "event/sliding_window.h"
#include "mil/dataset.h"

namespace mivid {
namespace {

TEST(BagLabelTest, Equation3PositiveIfAnyInstancePositive) {
  EXPECT_EQ(BagLabelFromInstances({false, true, false}), BagLabel::kRelevant);
  EXPECT_EQ(BagLabelFromInstances({true}), BagLabel::kRelevant);
  EXPECT_EQ(BagLabelFromInstances({true, true, true}), BagLabel::kRelevant);
}

TEST(BagLabelTest, Equation4NegativeIffAllInstancesNegative) {
  EXPECT_EQ(BagLabelFromInstances({false, false}), BagLabel::kIrrelevant);
  EXPECT_EQ(BagLabelFromInstances({}), BagLabel::kIrrelevant);
}

MilBag MakeBag(int id, size_t instances) {
  MilBag bag;
  bag.id = id;
  for (size_t i = 0; i < instances; ++i) {
    MilInstance inst;
    inst.bag_id = id;
    inst.instance_id = static_cast<int>(i);
    inst.features = {static_cast<double>(id), static_cast<double>(i)};
    inst.raw_features = inst.features;
    bag.instances.push_back(inst);
  }
  return bag;
}

TEST(MilDatasetTest, AddFindCount) {
  MilDataset ds;
  ds.AddBag(MakeBag(10, 2));
  ds.AddBag(MakeBag(20, 3));
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.TotalInstances(), 5u);
  ASSERT_NE(ds.FindBag(20), nullptr);
  EXPECT_EQ(ds.FindBag(20)->instances.size(), 3u);
  EXPECT_EQ(ds.FindBag(99), nullptr);
}

TEST(MilDatasetTest, MixedDimensionCorpusIsRefused) {
  // A bag without instances fixes no dimension; the first instance does.
  MilDataset ds;
  MilBag empty;
  empty.id = 1;
  ASSERT_TRUE(ds.AddBag(empty).ok());
  ASSERT_TRUE(ds.AddBag(MakeBag(2, 2)).ok());
  const size_t dim = ds.bag(1).instances[0].features.size();

  // Longer and shorter points than the corpus's are both refused, even
  // when only one instance of the bag differs.
  for (const size_t wrong : {dim + 1, dim - 1}) {
    MilBag odd = MakeBag(3, 2);
    odd.instances[1].features.resize(wrong, 0.5);
    const Status refused = ds.AddBag(odd);
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  }
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.FindBag(3), nullptr);

  // The corpus stays whole: it packs and a matching bag still enters.
  ASSERT_TRUE(ds.AddBag(MakeBag(3, 1)).ok());
  const auto packed = ds.EnsurePacked();
  EXPECT_EQ(packed->features.n(), 3u);
  EXPECT_EQ(packed->features.dim(), dim);
}

TEST(MilDatasetTest, LabelLifecycle) {
  MilDataset ds;
  ds.AddBag(MakeBag(1, 1));
  ds.AddBag(MakeBag(2, 1));
  ds.AddBag(MakeBag(3, 1));
  EXPECT_EQ(ds.CountLabel(BagLabel::kUnlabeled), 3u);

  ASSERT_TRUE(ds.SetLabel(1, BagLabel::kRelevant).ok());
  ASSERT_TRUE(ds.SetLabel(2, BagLabel::kIrrelevant).ok());
  EXPECT_EQ(ds.CountLabel(BagLabel::kRelevant), 1u);
  EXPECT_EQ(ds.CountLabel(BagLabel::kIrrelevant), 1u);
  EXPECT_EQ(ds.BagsWithLabel(BagLabel::kRelevant)[0]->id, 1);

  // Relabeling overwrites.
  ASSERT_TRUE(ds.SetLabel(1, BagLabel::kIrrelevant).ok());
  EXPECT_EQ(ds.CountLabel(BagLabel::kRelevant), 0u);

  // Unknown bag fails.
  EXPECT_TRUE(ds.SetLabel(42, BagLabel::kRelevant).IsNotFound());

  ds.ResetLabels();
  EXPECT_EQ(ds.CountLabel(BagLabel::kUnlabeled), 3u);
}

TEST(MilDatasetTest, FromVideoSequencesBuildsBagsPerWindow) {
  // Two tracks, one clip: build windows then bags.
  Track a, b;
  a.id = 0;
  b.id = 1;
  for (int f = 0; f <= 60; ++f) {
    a.points.push_back({f, {3.0 * f, 100}, {}});
    b.points.push_back({f, {3.0 * f, 120}, {}});
  }
  FeatureOptions fopts;
  const auto features = ComputeTrackFeatures({a, b}, fopts);
  const FeatureScaler scaler = FeatureScaler::Fit(features, false);
  const auto windows = ExtractWindows(features, 61, fopts, WindowOptions{});
  const MilDataset ds = MilDataset::FromVideoSequences(windows, scaler, false);
  ASSERT_EQ(ds.size(), windows.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.bag(i).id, windows[i].vs_id);
    EXPECT_EQ(ds.bag(i).instances.size(), windows[i].ts.size());
    for (const auto& inst : ds.bag(i).instances) {
      EXPECT_EQ(inst.features.size(), 9u);
      EXPECT_EQ(inst.raw_features.size(), 9u);
      EXPECT_EQ(inst.bag_id, ds.bag(i).id);
    }
  }
}

}  // namespace
}  // namespace mivid
