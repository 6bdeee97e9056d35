#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

namespace roleshare::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsIndependentOfParentConsumption) {
  Rng parent1(7);
  Rng parent2(7);
  (void)parent2();  // consume from one parent only
  Rng child1 = parent1.split(3);
  Rng child2 = parent2.split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, SplitLabelsProduceDistinctStreams) {
  Rng parent(7);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, StringSplitMatchesItself) {
  Rng parent(9);
  Rng a = parent.split("stakes");
  Rng b = parent.split("stakes");
  Rng c = parent.split("behaviors");
  EXPECT_EQ(a(), b());
  Rng a2 = parent.split("stakes");
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaled) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(100.0, 10.0);
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SampleWithoutReplacementUnique) {
  Rng rng(29);
  const auto picks = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto p : picks) EXPECT_LT(p, 100u);
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(31);
  const auto picks = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, DeriveSeedsMatchesPerLabelDeriveSeed) {
  const Rng parent(909);
  std::vector<std::uint64_t> labels;
  for (std::uint64_t i = 0; i < 257; ++i) labels.push_back(i * 31 + 7);
  std::vector<std::uint64_t> chunked(labels.size());
  parent.derive_seeds(labels, chunked);
  for (std::size_t i = 0; i < labels.size(); ++i)
    EXPECT_EQ(chunked[i], parent.derive_seed(labels[i]));
}

TEST(Rng, DeriveSeedsStreamsMatchSplitChains) {
  // The hot-path contract: constructing an Rng from a chunk-derived seed
  // must yield the exact stream split(label) would.
  const Rng parent(4242);
  const std::vector<std::uint64_t> labels = {0, 1, 5, 1000, 999'999};
  std::vector<std::uint64_t> seeds(labels.size());
  parent.derive_seeds(labels, seeds);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    Rng from_seed(seeds[i]);
    Rng from_split = parent.split(labels[i]);
    for (int draw = 0; draw < 16; ++draw)
      EXPECT_EQ(from_seed(), from_split());
  }
}

TEST(Rng, DeriveSeedsRejectsSizeMismatch) {
  const Rng parent(3);
  const std::vector<std::uint64_t> labels = {1, 2, 3};
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(parent.derive_seeds(labels, out), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace roleshare::util
