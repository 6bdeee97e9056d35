#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "util/alias_sampler.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace roleshare::util {
namespace {

TEST(Stats, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(stddev({5, 5, 5, 5}), 0.0);
}

TEST(Stats, StddevKnownValue) {
  // Sample stddev of {2,4,4,4,5,5,7,9} is sqrt(32/7).
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, TrimmedMeanDropsOutliers) {
  // 10 values; 20% trim removes 2 from each end.
  std::vector<double> xs = {-1000, 1, 2, 3, 4, 5, 6, 7, 8, 1000};
  EXPECT_NEAR(trimmed_mean(xs, 0.2), (2 + 3 + 4 + 5 + 6 + 7) / 6.0, 1e-12);
}

TEST(Stats, TrimmedMeanZeroTrimIsMean) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.0), mean(xs));
}

TEST(Stats, TrimmedMeanRejectsBadFraction) {
  EXPECT_THROW(trimmed_mean({1.0}, 0.5), std::invalid_argument);
  EXPECT_THROW(trimmed_mean({1.0}, -0.1), std::invalid_argument);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
}

TEST(Stats, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95), 7.0);
}

TEST(Stats, PercentileRejectsOutOfRangeP) {
  // The guard matters for the shard/accumulator layer: a malformed
  // partial must fail loudly, not index out of bounds.
  const std::vector<double> xs = {10, 20, 30};
  EXPECT_THROW(percentile(xs, -0.001), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 100.001), std::invalid_argument);
  EXPECT_THROW(percentile(xs, -50), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 1e9), std::invalid_argument);
  // NaN fails the range comparison too — still a loud rejection.
  EXPECT_THROW(percentile(xs, std::nan("")), std::invalid_argument);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);  // empty sample
}

TEST(Stats, SummaryConsistency) {
  const std::vector<double> xs = {3, 1, 4, 1, 5, 9, 2, 6};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 9);
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
}

TEST(RunningStats, MatchesBatchStats) {
  const std::vector<double> xs = {1.5, 2.5, -3, 8, 0.25, 4};
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -3);
  EXPECT_DOUBLE_EQ(rs.max(), 8);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(5);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequentialFeed) {
  // Chan-combine of two halves must agree with one sequential pass —
  // the property shard partials rely on.
  const std::vector<double> xs = {1.5, -2.25, 8, 0.125, 4, 7.5, -3, 2};
  RunningStats whole;
  for (const double x : xs) whole.add(x);
  RunningStats left, right;
  for (std::size_t i = 0; i < xs.size(); ++i)
    (i < xs.size() / 2 ? left : right).add(xs[i]);
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats filled;
  filled.add(3);
  filled.add(9);
  RunningStats empty;
  RunningStats a = filled;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  RunningStats b = empty;
  b.merge(filled);  // adoption
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 6.0);
  EXPECT_DOUBLE_EQ(b.min(), 3.0);
  EXPECT_DOUBLE_EQ(b.max(), 9.0);
}

TEST(RunningStats, StateRoundTrip) {
  RunningStats rs;
  for (const double x : {0.5, 2.5, -1.0}) rs.add(x);
  const RunningStats copy = RunningStats::from_state(
      rs.count(), rs.mean(), rs.m2(), rs.min(), rs.max());
  EXPECT_EQ(copy.count(), rs.count());
  EXPECT_DOUBLE_EQ(copy.mean(), rs.mean());
  EXPECT_DOUBLE_EQ(copy.variance(), rs.variance());
  EXPECT_DOUBLE_EQ(copy.min(), rs.min());
  EXPECT_DOUBLE_EQ(copy.max(), rs.max());
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 6.0);
}

TEST(Histogram, CountsValues) {
  Histogram h(0.0, 10.0, 5);
  h.add_all({1, 3, 5, 5.5, 9.9});
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 2u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, SaturatesAtEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100);
  h.add(100);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, RenderShowsBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string render = h.render(10);
  EXPECT_NE(render.find('#'), std::string::npos);
  EXPECT_NE(render.find('\n'), std::string::npos);
}

TEST(AliasSampler, MatchesWeights) {
  Rng rng(77);
  const std::vector<double> weights = {2.0, 0.0, 3.0, 5.0};
  AliasSampler sampler(weights);
  std::array<int, 4> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.2, 0.015);
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.5, 0.015);
}

TEST(AliasSampler, UniformWeights) {
  Rng rng(78);
  AliasSampler sampler(std::vector<double>(10, 1.0));
  std::array<int, 10> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[sampler.sample(rng)];
  for (const int c : counts)
    EXPECT_NEAR(c / 50000.0, 0.1, 0.02);
}

TEST(AliasSampler, RejectsDegenerateInput) {
  EXPECT_THROW(AliasSampler({}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({1.0, -1.0}), std::invalid_argument);
}

TEST(AliasSampler, RejectsNonFiniteWeights) {
  EXPECT_THROW(AliasSampler({1.0, std::nan("")}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({1.0, INFINITY}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({-INFINITY, 1.0}), std::invalid_argument);
}

TEST(AliasSampler, RejectsWeightsWhoseSumOverflows) {
  // Each weight is finite, but the sum is +inf: every scaled probability
  // would be 0 and every bucket a probability-1 leftover, so the table
  // would draw 0.5 / 0.5 instead of 0.37 / 0.63.
  try {
    const AliasSampler sampler(std::vector<double>{1e308, 1.7e308});
    FAIL() << "a weight sum that overflows was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite total"),
              std::string::npos)
        << e.what();
  }
}

// 10,000 draws of `got` equal those of `want` under the same seed.
void expect_same_draws(const AliasSampler& got, const AliasSampler& want,
                       std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size());
  Rng a(seed), b(seed);
  for (int i = 0; i < 10000; ++i)
    ASSERT_EQ(got.sample(a), want.sample(b)) << "draw " << i;
}

TEST(AliasSampler, RebuildMatchesFreshSampler) {
  // Sizes grow and shrink, and the table switches between the all-equal
  // and the skewed paths: nothing an earlier table left in the sampler's
  // buffers may show in a draw.
  Rng stakes(83);
  std::vector<double> population(100000);
  for (double& w : population)
    w = static_cast<double>(stakes.uniform_int(1, 200));
  const std::vector<std::vector<double>> sequence = {
      {0.001, 5.0, 0.0, 2.5, 0.0},
      std::vector<double>(7, 0.1),
      {3.0, 1.0, 2.0},
      population,
      {1.0, 9.0}};
  AliasSampler sampler(std::vector<double>{1.0});
  std::uint64_t seed = 84;
  for (const std::vector<double>& weights : sequence) {
    sampler.rebuild(weights);
    expect_same_draws(sampler, AliasSampler(weights), seed++);
  }
}

TEST(AliasSampler, RefusedRebuildKeepsTheTable) {
  const std::vector<double> weights = {0.001, 5.0, 0.0, 2.5};
  AliasSampler sampler(weights);
  EXPECT_THROW(sampler.rebuild({}), std::invalid_argument);
  EXPECT_THROW(sampler.rebuild({1.0, std::nan("")}), std::invalid_argument);
  EXPECT_THROW(sampler.rebuild({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(sampler.rebuild({1e308, 1.7e308}), std::invalid_argument);
  expect_same_draws(sampler, AliasSampler(weights), 90);
}

TEST(AliasSampler, SingleEntryAlwaysSamplesZero) {
  Rng rng(79);
  AliasSampler sampler(std::vector<double>{0.25});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(AliasSampler, AllEqualWeightsAreExactlyUniform) {
  // The all-equal fast path pins every cell probability to 1, so a draw
  // reduces to the uniform column pick: the result must equal the raw
  // uniform_int the rng would produce, for ANY equal weight value —
  // including ones whose floating-point sum would not divide back evenly.
  for (const double w : {1.0, 0.1, 3.0e-9, 7.77e12}) {
    AliasSampler sampler(std::vector<double>(7, w));
    Rng sampling(80), manual(80);
    for (int i = 0; i < 500; ++i) {
      const std::size_t got = sampler.sample(sampling);
      const auto expected =
          static_cast<std::size_t>(manual.uniform_int(0, 6));
      (void)manual.uniform01();  // the coin the draw also consumes
      ASSERT_EQ(got, expected) << "weight " << w;
    }
  }
}

TEST(AliasSampler, EveryDrawConsumesExactlyTwoVariates) {
  // One uniform_int + one uniform01 per draw, whatever the table shape —
  // the stream-discipline contract downstream consumers rely on.
  AliasSampler skewed(std::vector<double>{0.001, 5.0, 0.0, 2.5});
  Rng a(81), b(81);
  for (int i = 0; i < 300; ++i) {
    (void)skewed.sample(a);
    (void)b.uniform_int(0, 3);
    (void)b.uniform01();
  }
  EXPECT_EQ(a(), b());
}

TEST(AliasSampler, ZeroWeightEntriesNeverReturned) {
  Rng rng(82);
  AliasSampler sampler(std::vector<double>{0.0, 1.0, 0.0, 1.0, 0.0});
  for (int i = 0; i < 5000; ++i) {
    const std::size_t v = sampler.sample(rng);
    EXPECT_TRUE(v == 1 || v == 3) << v;
  }
}

}  // namespace
}  // namespace roleshare::util
