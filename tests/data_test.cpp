#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "data/dataset.hpp"
#include "data/federated.hpp"
#include "data/synthetic.hpp"

namespace afl {
namespace {

TEST(Dataset, AddAndBatch) {
  Dataset ds(1, 2, 2, 3);
  ds.add(Tensor::from_vector({1, 2, 2}, {1, 2, 3, 4}), 0);
  ds.add(Tensor::from_vector({1, 2, 2}, {5, 6, 7, 8}), 2);
  EXPECT_EQ(ds.size(), 2u);
  Batch b = ds.make_batch({1, 0});
  ASSERT_EQ(b.images.shape(), (Shape{2, 1, 2, 2}));
  EXPECT_EQ(b.labels[0], 2);
  EXPECT_EQ(b.labels[1], 0);
  EXPECT_FLOAT_EQ(b.images[0], 5.0f);
  EXPECT_FLOAT_EQ(b.images[4], 1.0f);
}

TEST(Dataset, Validation) {
  Dataset ds(1, 2, 2, 3);
  EXPECT_THROW(ds.add(Tensor({1, 2, 3}), 0), std::invalid_argument);
  EXPECT_THROW(ds.add(Tensor({1, 2, 2}), 3), std::invalid_argument);
  EXPECT_THROW(ds.add(Tensor({1, 2, 2}), -1), std::invalid_argument);
  ds.add(Tensor({1, 2, 2}), 0);
  EXPECT_THROW(ds.make_batch({5}), std::out_of_range);
}

TEST(Dataset, ShuffledBatchesCoverAllOnce) {
  Dataset ds(1, 1, 1, 2);
  for (int i = 0; i < 23; ++i) ds.add(Tensor({1, 1, 1}), i % 2);
  Rng rng(1);
  auto batches = ds.shuffled_batches(5, rng);
  ASSERT_EQ(batches.size(), 5u);  // 4 full + 1 remainder of 3
  EXPECT_EQ(batches.back().size(), 3u);
  std::vector<int> seen(23, 0);
  for (const auto& b : batches) {
    for (std::size_t i : b) ++seen[i];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Dataset, ShuffledBatchesRejectsZeroBatchSize) {
  // A zero batch size would append empty batches until memory runs out.
  Dataset ds(1, 1, 1, 2);
  ds.add(Tensor({1, 1, 1}), 0);
  Rng rng(1);
  try {
    ds.shuffled_batches(0, rng);
    FAIL() << "batch size 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("batch_size must be >= 1, got 0"), std::string::npos)
        << e.what();
  }
}

TEST(Dataset, ClassHistogram) {
  Dataset ds(1, 1, 1, 3);
  for (int label : {0, 1, 1, 2, 2, 2}) ds.add(Tensor({1, 1, 1}), label);
  const auto hist = ds.class_histogram();
  EXPECT_EQ(hist, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Synthetic, PresetsMatchPaperClassCounts) {
  EXPECT_EQ(SyntheticConfig::cifar10_like().num_classes, 10u);
  EXPECT_EQ(SyntheticConfig::cifar100_like().num_classes, 100u);
  EXPECT_EQ(SyntheticConfig::femnist_like().num_classes, 62u);
  EXPECT_EQ(SyntheticConfig::widar_like().num_classes, 22u);
  EXPECT_EQ(SyntheticConfig::femnist_like().channels, 1u);
}

TEST(Synthetic, GenerateShapesAndLabels) {
  Rng rng(1);
  SyntheticConfig cfg = SyntheticConfig::cifar10_like(8);
  SyntheticTask task(cfg, rng);
  Dataset ds = task.generate(50, rng);
  EXPECT_EQ(ds.size(), 50u);
  EXPECT_EQ(ds.channels(), 3u);
  EXPECT_EQ(ds.height(), 8u);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.label(i), 0);
    EXPECT_LT(ds.label(i), 10);
  }
}

TEST(Synthetic, ClassWeightsRespected) {
  Rng rng(2);
  SyntheticConfig cfg = SyntheticConfig::cifar10_like(8);
  SyntheticTask task(cfg, rng);
  std::vector<double> weights(10, 0.0);
  weights[3] = 1.0;
  Dataset ds = task.generate(40, rng, weights);
  for (std::size_t i = 0; i < ds.size(); ++i) EXPECT_EQ(ds.label(i), 3);
}

TEST(Synthetic, SameClassSamplesCorrelateMoreThanCrossClass) {
  // The class signal must be recoverable: same-class samples should be more
  // similar (on average) than different-class samples.
  Rng rng(3);
  SyntheticConfig cfg = SyntheticConfig::cifar10_like(8);
  cfg.modes_per_class = 1;  // single-mode for a clean correlation test
  SyntheticTask task(cfg, rng);
  auto cosine = [](const Tensor& a, const Tensor& b) {
    double dot = 0, na = 0, nb = 0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
      dot += double(a[i]) * b[i];
      na += double(a[i]) * a[i];
      nb += double(b[i]) * b[i];
    }
    return dot / std::sqrt(na * nb + 1e-12);
  };
  double same = 0.0, cross = 0.0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    Tensor a0 = task.sample(0, rng);
    Tensor a1 = task.sample(0, rng);
    Tensor b = task.sample(1, rng);
    same += cosine(a0, a1);
    cross += cosine(a0, b);
  }
  EXPECT_GT(same / trials, cross / trials + 0.1);
}

TEST(Synthetic, LabelNoiseFlipsSomeLabels) {
  Rng rng(4);
  SyntheticConfig cfg = SyntheticConfig::cifar10_like(8);
  cfg.label_noise = 1.0;  // every label re-drawn uniformly
  SyntheticTask task(cfg, rng);
  std::vector<double> weights(10, 0.0);
  weights[0] = 1.0;
  Dataset ds = task.generate(100, rng, weights);
  int nonzero = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) nonzero += ds.label(i) != 0;
  EXPECT_GT(nonzero, 50);
}

TEST(Federated, IidShapes) {
  Rng rng(5);
  SyntheticTask task(SyntheticConfig::cifar10_like(8), rng);
  FederatedConfig fed;
  fed.num_clients = 12;
  fed.samples_per_client = 9;
  fed.test_samples = 30;
  FederatedDataset fd = make_federated(task, fed, rng);
  EXPECT_EQ(fd.num_clients(), 12u);
  EXPECT_EQ(fd.total_train_samples(), 108u);
  EXPECT_EQ(fd.test.size(), 30u);
  EXPECT_EQ(fd.num_classes, 10u);
}

double class_distribution_skew(const Dataset& ds) {
  // Max class share within the client's shard.
  const auto hist = ds.class_histogram();
  const double total = static_cast<double>(ds.size());
  std::size_t mx = 0;
  for (std::size_t h : hist) mx = std::max(mx, h);
  return static_cast<double>(mx) / total;
}

TEST(Federated, DirichletSkewGrowsAsAlphaShrinks) {
  Rng rng(6);
  SyntheticTask task(SyntheticConfig::cifar10_like(8), rng);
  auto mean_skew = [&](double alpha) {
    Rng r(99);
    FederatedConfig fed;
    fed.num_clients = 30;
    fed.samples_per_client = 40;
    fed.test_samples = 10;
    fed.partition = Partition::kDirichlet;
    fed.alpha = alpha;
    FederatedDataset fd = make_federated(task, fed, r);
    double s = 0.0;
    for (const auto& c : fd.clients) s += class_distribution_skew(c);
    return s / static_cast<double>(fd.num_clients());
  };
  const double skew_03 = mean_skew(0.3);
  const double skew_06 = mean_skew(0.6);
  const double skew_iid = [&] {
    Rng r(98);
    FederatedConfig fed;
    fed.num_clients = 30;
    fed.samples_per_client = 40;
    fed.test_samples = 10;
    FederatedDataset fd = make_federated(task, fed, r);
    double s = 0.0;
    for (const auto& c : fd.clients) s += class_distribution_skew(c);
    return s / static_cast<double>(fd.num_clients());
  }();
  EXPECT_GT(skew_03, skew_06);
  EXPECT_GT(skew_06, skew_iid);
}

TEST(Federated, NaturalPartitionRestrictsClasses) {
  Rng rng(7);
  SyntheticTask task(SyntheticConfig::femnist_like(8), rng);
  FederatedConfig fed;
  fed.num_clients = 10;
  fed.samples_per_client = 50;
  fed.test_samples = 10;
  fed.partition = Partition::kNatural;
  fed.classes_per_client = 5;
  FederatedDataset fd = make_federated(task, fed, rng);
  for (const auto& c : fd.clients) {
    const auto hist = c.class_histogram();
    std::size_t present = 0;
    for (std::size_t h : hist) present += h > 0;
    EXPECT_LE(present, 5u);
    EXPECT_GE(present, 1u);
  }
}

TEST(Federated, DeterministicGivenSeed) {
  SyntheticConfig cfg = SyntheticConfig::cifar10_like(8);
  auto build = [&] {
    Rng rng(123);
    SyntheticTask task(cfg, rng);
    FederatedConfig fed;
    fed.num_clients = 4;
    fed.samples_per_client = 5;
    fed.test_samples = 6;
    return make_federated(task, fed, rng);
  };
  FederatedDataset a = build();
  FederatedDataset b = build();
  ASSERT_EQ(a.test.size(), b.test.size());
  const Batch ba = a.test.all();
  const Batch bb = b.test.all();
  for (std::size_t i = 0; i < ba.images.numel(); ++i) {
    ASSERT_EQ(ba.images[i], bb.images[i]);
  }
  EXPECT_EQ(ba.labels, bb.labels);
}

TEST(Federated, PartitionNames) {
  EXPECT_STREQ(partition_name(Partition::kIid), "IID");
  EXPECT_STREQ(partition_name(Partition::kDirichlet), "dirichlet");
  EXPECT_STREQ(partition_name(Partition::kNatural), "natural");
}

}  // namespace
}  // namespace afl
