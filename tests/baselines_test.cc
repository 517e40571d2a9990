#include <gtest/gtest.h>

#include <memory>

#include "baselines/registry.h"
#include "eval/metrics.h"
#include "eval/splits.h"
#include "test_helpers.h"

namespace uv::baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    urg_ = new urg::UrbanRegionGraph(uv::testing::TinyUrg());
    Rng rng(3);
    auto folds = eval::BlockKFold(urg_->grid, urg_->LabeledIds(), 3, 8, &rng);
    fold_ = new eval::Fold(folds[0]);
    train_labels_ = new std::vector<int>();
    for (int id : fold_->train_ids) train_labels_->push_back(urg_->labels[id]);
    test_labels_ = new std::vector<int>();
    for (int id : fold_->test_ids) test_labels_->push_back(urg_->labels[id]);
  }

  // Every suite derived from this fixture re-runs SetUpTestSuite, so each
  // must free what it built.
  static void TearDownTestSuite() {
    delete urg_;
    delete fold_;
    delete train_labels_;
    delete test_labels_;
    urg_ = nullptr;
    fold_ = nullptr;
    train_labels_ = nullptr;
    test_labels_ = nullptr;
  }

  static TrainOptions FastOptions(uint64_t seed = 1) {
    TrainOptions options;
    options.epochs = 15;
    options.learning_rate = 5e-3;
    options.seed = seed;
    return options;
  }

  static core::CmsfConfig FastCmsf() {
    core::CmsfConfig config;
    config.hidden_dim = 16;
    config.image_reduce_dim = 16;
    config.num_clusters = 8;
    config.classifier_hidden = 8;
    config.context_dim = 4;
    config.slave_epochs = 5;
    return config;
  }

  static urg::UrbanRegionGraph* urg_;
  static eval::Fold* fold_;
  static std::vector<int>* train_labels_;
  static std::vector<int>* test_labels_;
};

urg::UrbanRegionGraph* BaselinesTest::urg_ = nullptr;
eval::Fold* BaselinesTest::fold_ = nullptr;
std::vector<int>* BaselinesTest::train_labels_ = nullptr;
std::vector<int>* BaselinesTest::test_labels_ = nullptr;

TEST_F(BaselinesTest, RegistryListsPaperOrder) {
  auto names = AllDetectorNames();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "MLP");
  EXPECT_EQ(names.back(), "CMSF");
}

// Every method in the registry trains, scores in [0,1], reports parameters
// and timing, and is deterministic under a fixed seed.
class EveryDetectorTest : public BaselinesTest,
                          public ::testing::WithParamInterface<std::string> {};

TEST_P(EveryDetectorTest, TrainsAndScores) {
  auto detector = MakeDetector(GetParam(), FastOptions(), FastCmsf());
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->name(), GetParam());
  detector->Train(*urg_, fold_->train_ids, *train_labels_);
  auto scores = detector->Score(*urg_, fold_->test_ids);
  ASSERT_EQ(scores.size(), fold_->test_ids.size());
  for (float s : scores) {
    ASSERT_GE(s, 0.0f);
    ASSERT_LE(s, 1.0f);
  }
  EXPECT_GT(detector->NumParameters(), 0);
  EXPECT_GE(detector->TrainSecondsPerEpoch(), 0.0);
  EXPECT_GE(detector->LastInferenceSeconds(), 0.0);
}

TEST_P(EveryDetectorTest, DeterministicGivenSeed) {
  auto a = MakeDetector(GetParam(), FastOptions(7), FastCmsf());
  auto b = MakeDetector(GetParam(), FastOptions(7), FastCmsf());
  a->Train(*urg_, fold_->train_ids, *train_labels_);
  b->Train(*urg_, fold_->train_ids, *train_labels_);
  auto sa = a->Score(*urg_, fold_->test_ids);
  auto sb = b->Score(*urg_, fold_->test_ids);
  for (size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EveryDetectorTest,
    ::testing::Values("MLP", "GCN", "GAT", "MMRE", "UVLens", "MUVFCN",
                      "ImGAGN", "CMSF", "CMSF-M", "CMSF-G", "CMSF-H"));

TEST_F(BaselinesTest, MlpLearnsSignal) {
  TrainOptions options = FastOptions();
  options.epochs = 80;
  auto detector = MakeDetector("MLP", options, FastCmsf());
  detector->Train(*urg_, fold_->train_ids, *train_labels_);
  auto scores = detector->Score(*urg_, fold_->test_ids);
  EXPECT_GT(eval::Auc(scores, *test_labels_), 0.65);
}

TEST_F(BaselinesTest, ModelSizeOrdering) {
  // UVLens (FC stack on flattened maps) must dwarf MLP, mirroring the
  // Table III model-size ordering.
  auto mlp = MakeDetector("MLP", FastOptions(), FastCmsf());
  auto uvlens = MakeDetector("UVLens", FastOptions(), FastCmsf());
  mlp->Train(*urg_, fold_->train_ids, *train_labels_);
  uvlens->Train(*urg_, fold_->train_ids, *train_labels_);
  EXPECT_GT(uvlens->NumParameters(), 3 * mlp->NumParameters());
}

TEST_F(BaselinesTest, CommonHelpers) {
  Tensor features(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  auto rows = GatherConstRows(features, {3, 0});
  EXPECT_FLOAT_EQ(rows->value.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(rows->value.at(1, 0), 1.0f);
  EXPECT_FALSE(rows->requires_grad);

  Tensor logits(3, 1, {0.0f, 100.0f, -100.0f});
  auto probs = SigmoidRows(logits, {0, 1, 2});
  EXPECT_NEAR(probs[0], 0.5f, 1e-6f);
  EXPECT_NEAR(probs[1], 1.0f, 1e-6f);
  EXPECT_NEAR(probs[2], 0.0f, 1e-6f);
}

}  // namespace
}  // namespace uv::baselines
