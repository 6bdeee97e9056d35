#include "util/streaming_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace roleshare::util {
namespace {

std::vector<double> normal_samples(std::size_t n, std::uint64_t seed,
                                   double mean, double sigma) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.normal(mean, sigma);
  return xs;
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile p2(0.5);
  EXPECT_THROW(p2.estimate(), std::invalid_argument);  // empty
  p2.add(3.0);
  EXPECT_DOUBLE_EQ(p2.estimate(), 3.0);
  p2.add(1.0);
  p2.add(2.0);
  // Three samples: the estimate is the exact interpolated median.
  EXPECT_DOUBLE_EQ(p2.estimate(), percentile({3.0, 1.0, 2.0}, 50.0));
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, TracksQuantilesOfALargeStream) {
  // The documented error bound: on 10k normal samples the P² estimate of
  // each tracked quantile stays within a few percent of one sigma from
  // the exact order statistic.
  const std::vector<double> xs = normal_samples(10'000, 99, 50.0, 10.0);
  for (const double q : {0.25, 0.5, 0.75, 0.95}) {
    P2Quantile p2(q);
    for (const double x : xs) p2.add(x);
    const double exact = percentile(xs, q * 100.0);
    EXPECT_NEAR(p2.estimate(), exact, 0.5)
        << "quantile " << q;  // 0.5 = 5% of sigma
  }
}

TEST(P2Quantile, DeterministicAndSerializable) {
  const std::vector<double> xs = normal_samples(500, 7, 0.0, 1.0);
  P2Quantile a(0.5), b(0.5);
  for (const double x : xs) {
    a.add(x);
    b.add(x);
  }
  EXPECT_DOUBLE_EQ(a.estimate(), b.estimate());

  // State round-trip continues identically.
  P2Quantile restored = P2Quantile::from_state(a.state());
  for (const double x : normal_samples(100, 8, 0.0, 1.0)) {
    a.add(x);
    restored.add(x);
  }
  EXPECT_DOUBLE_EQ(restored.estimate(), a.estimate());
  EXPECT_EQ(restored.count(), a.count());
}

TEST(ReservoirSample, ExactWhileStreamFits) {
  ReservoirSample r(8, 42);
  for (const double x : {5.0, 1.0, 3.0}) r.add(x);
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.seen(), 3u);
  EXPECT_EQ(r.samples(), (std::vector<double>{5.0, 1.0, 3.0}));
}

TEST(ReservoirSample, DeterministicForSameSeedAndStream) {
  const std::vector<double> xs = normal_samples(2'000, 11, 0.0, 1.0);
  ReservoirSample a(64, 9), b(64, 9);
  for (const double x : xs) {
    a.add(x);
    b.add(x);
  }
  EXPECT_FALSE(a.exact());
  EXPECT_EQ(a.samples(), b.samples());  // bitwise
  EXPECT_EQ(a.seen(), 2'000u);
  EXPECT_EQ(a.samples().size(), 64u);
}

TEST(ReservoirSample, SubsampleQuantilesNearExact) {
  // Rank-space error ~ sqrt(p(1-p)/K): K=256 on 20k samples keeps the
  // median of N(100, 15) within ~2 sigma of the exact one.
  const std::vector<double> xs = normal_samples(20'000, 21, 100.0, 15.0);
  ReservoirSample r(256, 5);
  for (const double x : xs) r.add(x);
  const double exact_median = percentile(xs, 50.0);
  const double est_median = percentile(r.samples(), 50.0);
  EXPECT_NEAR(est_median, exact_median, 3.0);  // 0.2 sigma
  const double exact_trimmed = trimmed_mean(xs, 0.2);
  const double est_trimmed = trimmed_mean(r.samples(), 0.2);
  EXPECT_NEAR(est_trimmed, exact_trimmed, 3.0);
}

TEST(ReservoirSample, MergeConcatenatesWhileFitting) {
  ReservoirSample a(8, 1), b(8, 2);
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.samples(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(a.seen(), 3u);
}

TEST(ReservoirSample, MergeWithEmptyAdopts) {
  ReservoirSample filled(4, 1), empty(4, 2);
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) filled.add(x);
  ReservoirSample target(4, 3);
  target.merge(filled);
  EXPECT_EQ(target.seen(), filled.seen());
  EXPECT_EQ(target.samples(), filled.samples());
  filled.merge(empty);  // no-op
  EXPECT_EQ(filled.seen(), 6u);
}

TEST(ReservoirSample, MergedSubsampleStaysRepresentative) {
  // Two shards of one stream, merged, must estimate the union's median
  // within the same error budget as a single reservoir.
  const std::vector<double> xs = normal_samples(20'000, 33, 0.0, 1.0);
  ReservoirSample left(256, 4), right(256, 4);
  for (std::size_t i = 0; i < xs.size(); ++i)
    (i < xs.size() / 2 ? left : right).add(xs[i]);
  left.merge(right);
  EXPECT_EQ(left.seen(), 20'000u);
  EXPECT_EQ(left.samples().size(), 256u);
  EXPECT_NEAR(percentile(left.samples(), 50.0), percentile(xs, 50.0), 0.2);
}

TEST(ReservoirSample, MergeRejectsCapacityMismatchNamingBoth) {
  ReservoirSample a(8, 1), b(16, 1);
  try {
    a.merge(b);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('8'), std::string::npos) << what;
    EXPECT_NE(what.find("16"), std::string::npos) << what;
  }
}

TEST(ReservoirSample, StateRoundTripContinuesIdentically) {
  const std::vector<double> xs = normal_samples(1'000, 55, 0.0, 1.0);
  ReservoirSample original(64, 12);
  for (const double x : xs) original.add(x);
  ReservoirSample restored = ReservoirSample::from_state(
      64, original.seed_material(), original.seen(), original.draws(),
      std::vector<double>(original.samples()));
  for (const double x : normal_samples(500, 56, 0.0, 1.0)) {
    original.add(x);
    restored.add(x);
  }
  EXPECT_EQ(restored.samples(), original.samples());  // bitwise
  EXPECT_EQ(restored.seen(), original.seen());
  EXPECT_EQ(restored.draws(), original.draws());
}

TEST(ReservoirSample, ImpossibleDrawCountIsRefused) {
  // Any history draws at most `capacity` times per sample seen, so a
  // larger count (one edited number in a JSON partial) is refused instead
  // of replayed draw by draw.
  const std::vector<double> kept(8, 1.0);
  EXPECT_NO_THROW(ReservoirSample::from_state(8, 1, 10, 80, kept));
  EXPECT_THROW(ReservoirSample::from_state(8, 1, 10, 81, kept),
               std::invalid_argument);
  EXPECT_THROW(ReservoirSample::from_state(8, 1, 10, 1'000'000, kept),
               std::invalid_argument);
  // Adds and draw-heavy merges (each up to `capacity` draws for one more
  // sample seen) stay within the bound, and their state still loads.
  ReservoirSample r(4, 3);
  for (int i = 0; i < 50; ++i) {
    r.add(i);
    ReservoirSample one(4, 100 + i);
    one.add(-i);
    r.merge(one);
  }
  EXPECT_GT(r.draws(), r.seen());
  EXPECT_LE(r.draws(), r.seen() * r.capacity());
  EXPECT_NO_THROW(ReservoirSample::from_state(
      4, r.seed_material(), r.seen(), r.draws(),
      std::vector<double>(r.samples())));
}

TEST(ReservoirSample, StateRoundTripAfterMergeContinuesIdentically) {
  // merge() consumes private-stream draws too; the serialized draw count
  // must fast-forward past them so a restored reservoir replays ANY
  // history exactly — the contract shard checkpointing relies on.
  ReservoirSample left(32, 3), right(32, 4);
  for (const double x : normal_samples(300, 61, 0.0, 1.0)) left.add(x);
  for (const double x : normal_samples(300, 62, 0.0, 1.0)) right.add(x);
  left.merge(right);
  ReservoirSample restored = ReservoirSample::from_state(
      32, left.seed_material(), left.seen(), left.draws(),
      std::vector<double>(left.samples()));
  for (const double x : normal_samples(200, 63, 0.0, 1.0)) {
    left.add(x);
    restored.add(x);
  }
  EXPECT_EQ(restored.samples(), left.samples());  // bitwise
  EXPECT_EQ(restored.seen(), left.seen());
}

// ---------------------------------------------------------------------
// StakeConcentration — the long-horizon wealth sketches.

double exact_gini(std::vector<std::int64_t> stakes) {
  std::sort(stakes.begin(), stakes.end());
  double total = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    total += static_cast<double>(stakes[i]);
    weighted += static_cast<double>(i + 1) * static_cast<double>(stakes[i]);
  }
  if (total <= 0.0) return 0.0;
  const double n = static_cast<double>(stakes.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

TEST(StakeConcentration, EqualStakesHaveZeroGini) {
  StakeConcentration c;
  for (int i = 0; i < 100; ++i) c.add(25);
  EXPECT_NEAR(c.gini(), 0.0, 1e-12);
  EXPECT_EQ(c.count(), 100u);
  EXPECT_EQ(c.total(), 2500);
}

TEST(StakeConcentration, GiniTracksExactWithinQuantization) {
  Rng rng(41);
  std::vector<std::int64_t> stakes(3000);
  StakeConcentration c;
  for (auto& s : stakes) {
    s = rng.uniform_int(1, 5000);
    c.add(s);
  }
  // 8 buckets per octave => within-bucket spread < 2^(1/8) - 1 ~ 9%;
  // the Gini of the quantized distribution lands well inside 0.02 of
  // the exact value for smooth stake distributions.
  EXPECT_NEAR(c.gini(), exact_gini(stakes), 0.02);
}

TEST(StakeConcentration, TopShareExactWhenTopBucketIsolated) {
  StakeConcentration c;
  for (int i = 0; i < 9; ++i) c.add(1);
  c.add(991);  // alone in its bucket: the top-10% holder is identifiable
  EXPECT_NEAR(c.top_share(0.10), 0.991, 1e-12);
  EXPECT_NEAR(c.top_share(1.0), 1.0, 1e-12);
}

TEST(StakeConcentration, UpdateMatchesFreshRebuild) {
  Rng rng(43);
  std::vector<std::int64_t> stakes(500);
  StakeConcentration incremental;
  for (auto& s : stakes) {
    s = rng.uniform_int(1, 800);
    incremental.add(s);
  }
  for (int step = 0; step < 3000; ++step) {
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stakes.size()) - 1));
    const std::int64_t next = rng.uniform_int(1, 1200);
    incremental.update(stakes[v], next);
    stakes[v] = next;
  }
  StakeConcentration fresh;
  for (const auto s : stakes) fresh.add(s);
  EXPECT_EQ(incremental.count(), fresh.count());
  EXPECT_EQ(incremental.total(), fresh.total());
  EXPECT_EQ(incremental.gini(), fresh.gini());
  EXPECT_EQ(incremental.top_share(0.01), fresh.top_share(0.01));
  EXPECT_EQ(incremental.top_share(0.25), fresh.top_share(0.25));
}

TEST(StakeConcentration, RemoveUndoesAdd) {
  StakeConcentration c;
  c.add(10);
  c.add(500);
  const double before = c.gini();
  c.add(77);
  c.remove(77);
  EXPECT_EQ(c.gini(), before);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.total(), 510);
}

TEST(StakeConcentration, EmptyAndAllZeroAreDefined) {
  StakeConcentration c;
  EXPECT_EQ(c.gini(), 0.0);
  EXPECT_EQ(c.top_share(0.5), 0.0);
  c.add(0);
  c.add(0);
  EXPECT_EQ(c.gini(), 0.0);
  EXPECT_EQ(c.top_share(0.5), 0.0);
}

// ---------------------------------------------------------------------
// CohortWealthCorrelation — defector-vs-wealth tracking.

double exact_point_biserial(const std::vector<std::int64_t>& stakes,
                            const std::vector<bool>& cohort) {
  const double n = static_cast<double>(stakes.size());
  double n1 = 0, sum1 = 0, sum = 0, sum_sq = 0;
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    const double s = static_cast<double>(stakes[i]);
    sum += s;
    sum_sq += s * s;
    if (cohort[i]) {
      n1 += 1;
      sum1 += s;
    }
  }
  const double n0 = n - n1;
  if (n1 == 0 || n0 == 0) return 0.0;
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  if (var <= 0.0) return 0.0;
  const double mean1 = sum1 / n1;
  const double mean0 = (sum - sum1) / n0;
  return (mean1 - mean0) / std::sqrt(var) * std::sqrt(n1 * n0 / (n * n));
}

TEST(CohortWealthCorrelation, MatchesExactReference) {
  Rng rng(47);
  std::vector<std::int64_t> stakes(400);
  std::vector<bool> cohort(400);
  CohortWealthCorrelation c;
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    cohort[i] = rng.bernoulli(0.2);
    // Cohort members poorer on average: the correlation must come out
    // negative and match the closed form.
    stakes[i] = rng.uniform_int(1, cohort[i] ? 40 : 100);
    c.add(stakes[i], cohort[i]);
  }
  const double expected = exact_point_biserial(stakes, cohort);
  EXPECT_LT(expected, 0.0);
  EXPECT_NEAR(c.correlation(), expected, 1e-9);
}

TEST(CohortWealthCorrelation, DegenerateCasesAreZero) {
  CohortWealthCorrelation empty;
  EXPECT_EQ(empty.correlation(), 0.0);

  CohortWealthCorrelation one_sided;
  one_sided.add(10, false);
  one_sided.add(20, false);
  EXPECT_EQ(one_sided.correlation(), 0.0);

  CohortWealthCorrelation no_variance;
  no_variance.add(5, true);
  no_variance.add(5, false);
  EXPECT_EQ(no_variance.correlation(), 0.0);
}

TEST(CohortWealthCorrelation, UpdateMatchesFreshRebuild) {
  Rng rng(53);
  std::vector<std::int64_t> stakes(300);
  std::vector<bool> cohort(300);
  CohortWealthCorrelation incremental;
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    cohort[i] = rng.bernoulli(0.3);
    stakes[i] = rng.uniform_int(1, 500);
    incremental.add(stakes[i], cohort[i]);
  }
  for (int step = 0; step < 2000; ++step) {
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stakes.size()) - 1));
    const std::int64_t next = rng.uniform_int(1, 900);
    incremental.update(stakes[v], next, cohort[v]);
    stakes[v] = next;
  }
  CohortWealthCorrelation fresh;
  for (std::size_t i = 0; i < stakes.size(); ++i)
    fresh.add(stakes[i], cohort[i]);
  EXPECT_NEAR(incremental.correlation(), fresh.correlation(), 1e-9);
  EXPECT_EQ(incremental.count(), fresh.count());
  EXPECT_EQ(incremental.cohort_count(), fresh.cohort_count());
}

}  // namespace
}  // namespace roleshare::util
