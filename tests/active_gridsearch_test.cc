// Tests for retrieval/active_selection.

#include <set>

#include <gtest/gtest.h>

#include "retrieval/active_selection.h"

namespace mivid {
namespace {

MilDataset LabeledCorpus(int n, const std::set<int>& labeled_ids) {
  MilDataset ds;
  for (int b = 0; b < n; ++b) {
    MilBag bag;
    bag.id = b;
    MilInstance inst;
    inst.bag_id = b;
    inst.instance_id = 0;
    inst.features = {0.1 * b, 0.0, 0.0};
    inst.raw_features = inst.features;
    bag.instances.push_back(inst);
    ds.AddBag(std::move(bag));
  }
  for (int id : labeled_ids) {
    (void)ds.SetLabel(id, BagLabel::kRelevant);
  }
  return ds;
}

std::vector<ScoredBag> DescendingRanking(int n) {
  std::vector<ScoredBag> ranking;
  for (int b = 0; b < n; ++b) {
    ranking.push_back({b, 1.0 - 0.1 * b});  // bag 0 best, scores fall by 0.1
  }
  return ranking;
}

TEST(ActiveSelectionTest, PureExploitEqualsRanking) {
  const MilDataset ds = LabeledCorpus(10, {});
  ActiveSelectionOptions options;
  options.explore_fraction = 0.0;
  const auto sel =
      SelectForFeedback(DescendingRanking(10), ds, 4, 0.0, options);
  EXPECT_EQ(sel, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ActiveSelectionTest, ExploreSlotsPickBoundaryBags) {
  const MilDataset ds = LabeledCorpus(10, {});
  ActiveSelectionOptions options;
  options.explore_fraction = 0.5;
  // Boundary at 0.55: bags 4 (0.6) and 5 (0.5) are the most uncertain.
  const auto sel =
      SelectForFeedback(DescendingRanking(10), ds, 4, 0.55, options);
  ASSERT_EQ(sel.size(), 4u);
  EXPECT_EQ(sel[0], 0);
  EXPECT_EQ(sel[1], 1);
  const std::set<int> explore(sel.begin() + 2, sel.end());
  EXPECT_TRUE(explore.count(4));
  EXPECT_TRUE(explore.count(5));
}

TEST(ActiveSelectionTest, SkipsLabeledBags) {
  const MilDataset ds = LabeledCorpus(10, {0, 1});
  ActiveSelectionOptions options;
  options.explore_fraction = 0.0;
  const auto sel =
      SelectForFeedback(DescendingRanking(10), ds, 3, 0.0, options);
  EXPECT_EQ(sel, (std::vector<int>{2, 3, 4}));
}

TEST(ActiveSelectionTest, BackfillsWhenUnlabeledScarce) {
  const MilDataset ds = LabeledCorpus(4, {0, 1, 2});
  ActiveSelectionOptions options;
  const auto sel =
      SelectForFeedback(DescendingRanking(4), ds, 4, 0.0, options);
  EXPECT_EQ(sel.size(), 4u);  // labeled bags backfill rather than shorting
  const std::set<int> unique(sel.begin(), sel.end());
  EXPECT_EQ(unique.size(), 4u);
}

}  // namespace
}  // namespace mivid
