#include <gtest/gtest.h>

#include "sim/defection_experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/reward_experiment.hpp"

namespace roleshare::sim {
namespace {

TEST(OutcomeMetrics, AggregatesTrimmedMeans) {
  OutcomeMetrics metrics(2);
  RoundResult r;
  r.final_fraction = 1.0;
  r.tentative_fraction = 0.0;
  r.none_fraction = 0.0;
  metrics.record(0, r);
  r.final_fraction = 0.5;
  r.tentative_fraction = 0.25;
  r.none_fraction = 0.25;
  metrics.record(0, r);
  EXPECT_EQ(metrics.runs_recorded(0), 2u);
  EXPECT_EQ(metrics.runs_recorded(1), 0u);
  const auto agg = metrics.aggregate(0.0);
  EXPECT_NEAR(agg[0].final_pct, 75.0, 1e-9);
  EXPECT_NEAR(agg[0].tentative_pct, 12.5, 1e-9);
}

TEST(OutcomeMetrics, BoundsChecked) {
  OutcomeMetrics metrics(2);
  RoundResult r;
  EXPECT_THROW(metrics.record(5, r), std::invalid_argument);
  EXPECT_THROW(OutcomeMetrics(0), std::invalid_argument);
}

TEST(DefectionExperiment, ZeroDefectionStaysHealthy) {
  DefectionExperimentConfig config;
  config.network.node_count = 80;
  config.network.seed = 5;
  config.network.defection_rate = 0.0;
  config.runs = 6;
  config.rounds = 4;
  const DefectionSeries series = run_defection_experiment(config);
  ASSERT_EQ(series.rounds.size(), 4u);
  // Individual rounds can fail by honest bad luck (e.g. sortition elects
  // no proposer, ~e^-4), so assert on the across-round average.
  double mean_final = 0, mean_none = 0;
  for (const RoundAggregate& agg : series.rounds) {
    mean_final += agg.final_pct;
    mean_none += agg.none_pct;
  }
  EXPECT_GT(mean_final / 4, 80.0);
  EXPECT_LT(mean_none / 4, 15.0);
  EXPECT_DOUBLE_EQ(series.runs_with_progress, 1.0);
}

TEST(DefectionExperiment, HighDefectionCollapses) {
  DefectionExperimentConfig config;
  config.network.node_count = 80;
  config.network.seed = 6;
  config.network.defection_rate = 0.5;
  config.runs = 3;
  config.rounds = 4;
  const DefectionSeries series = run_defection_experiment(config);
  double mean_final = 0;
  for (const RoundAggregate& agg : series.rounds) mean_final += agg.final_pct;
  mean_final /= 4;
  EXPECT_LT(mean_final, 50.0);
}

TEST(DefectionExperiment, MonotoneInDefectionRate) {
  auto run_at = [](double rate) {
    DefectionExperimentConfig config;
    config.network.node_count = 80;
    config.network.seed = 7;
    config.network.defection_rate = rate;
    config.runs = 3;
    config.rounds = 3;
    const DefectionSeries series = run_defection_experiment(config);
    double mean_final = 0;
    for (const RoundAggregate& agg : series.rounds)
      mean_final += agg.final_pct;
    return mean_final / 3;
  };
  const double low = run_at(0.0);
  const double high = run_at(0.45);
  EXPECT_GT(low, high);
}

TEST(DefectionExperiment, RejectsEmptyConfig) {
  DefectionExperimentConfig config;
  config.runs = 0;
  EXPECT_THROW(run_defection_experiment(config), std::invalid_argument);
}

TEST(RewardExperiment, ComputesPositiveFeasibleRewards) {
  RewardExperimentConfig config;
  config.node_count = 5'000;
  config.runs = 3;
  config.rounds_per_run = 3;
  config.stakes = util::StakeDistribution::uniform(1, 200);
  const RewardExperimentResult result = run_reward_partial(config).finalize();
  EXPECT_EQ(result.infeasible_rounds, 0u);
  EXPECT_EQ(result.bi_algos.size(), 9u);
  EXPECT_GT(result.mean_bi, 0.0);
  for (const double bi : result.bi_algos) EXPECT_GT(bi, 0.0);
}

TEST(RewardExperiment, FoundationBaselineIsTwentyAlgosInPeriodOne) {
  RewardExperimentConfig config;
  config.node_count = 2'000;
  config.runs = 1;
  config.rounds_per_run = 3;
  const RewardExperimentResult result = run_reward_partial(config).finalize();
  for (const double f : result.foundation_per_round)
    EXPECT_DOUBLE_EQ(f, 20.0);
}

TEST(RewardExperiment, RewardScalesWithPopulationStake) {
  // Doubling the population (hence S_K) roughly doubles required B_i —
  // the online-node bound dominates.
  RewardExperimentConfig small;
  small.node_count = 3'000;
  small.runs = 2;
  small.rounds_per_run = 2;
  RewardExperimentConfig big = small;
  big.node_count = 6'000;
  const double bi_small = run_reward_partial(small).finalize().mean_bi;
  const double bi_big = run_reward_partial(big).finalize().mean_bi;
  EXPECT_GT(bi_big, bi_small * 1.5);
  EXPECT_LT(bi_big, bi_small * 2.5);
}

TEST(RewardExperiment, MinStakeFilterReducesReward) {
  // Fig-7(c): excluding small stakes from the reward set cuts B_i.
  RewardExperimentConfig base;
  base.node_count = 4'000;
  base.runs = 2;
  base.rounds_per_run = 2;
  base.stakes = util::StakeDistribution::uniform(1, 200);
  RewardExperimentConfig filtered = base;
  filtered.min_other_stake = 7;
  const double bi_base = run_reward_partial(base).finalize().mean_bi;
  const double bi_filtered = run_reward_partial(filtered).finalize().mean_bi;
  EXPECT_LT(bi_filtered, bi_base);
}

TEST(RewardExperiment, NarrowDistributionNeedsSmallerReward) {
  // N(100,10) has a much larger minimum stake than U(1,200), so its
  // required reward is far smaller — the Fig-6 ordering.
  RewardExperimentConfig uniform;
  uniform.node_count = 4'000;
  uniform.runs = 2;
  uniform.rounds_per_run = 2;
  uniform.stakes = util::StakeDistribution::uniform(1, 200);
  RewardExperimentConfig normal = uniform;
  normal.stakes = util::StakeDistribution::normal(100, 10);
  const double bi_uniform = run_reward_partial(uniform).finalize().mean_bi;
  const double bi_normal = run_reward_partial(normal).finalize().mean_bi;
  EXPECT_LT(bi_normal, bi_uniform * 0.5);
}

TEST(RewardExperiment, OptimizerKeepsLeaderShareTiny) {
  // Fig-5 shape: alpha stays tiny (S_L = 26 is minute), and a healthy
  // share is left for the online nodes. At small simulated populations the
  // committee share beta legitimately grows (S_M = 13k is then a large
  // fraction of S_N), so only loose bounds apply to it.
  RewardExperimentConfig config;
  config.node_count = 3'000;
  config.runs = 2;
  config.rounds_per_run = 2;
  const RewardExperimentResult result = run_reward_partial(config).finalize();
  EXPECT_LT(result.mean_alpha, 0.1);
  // At 3k nodes S_M = 13k is a large share of S_N, so beta legitimately
  // dominates; gamma still stays positive.
  EXPECT_GT(1.0 - result.mean_alpha - result.mean_beta, 0.01);  // gamma
}

TEST(RewardExperiment, PaperScalePopulationYieldsSmallAlphaBeta) {
  // At a population closer to the paper's (S_K >> S_M) both alpha and
  // beta shrink, matching the (0.02, 0.03) regime of §V-A.
  RewardExperimentConfig config;
  config.node_count = 50'000;
  config.runs = 1;
  config.rounds_per_run = 2;
  const RewardExperimentResult result = run_reward_partial(config).finalize();
  EXPECT_LT(result.mean_alpha, 0.05);
  EXPECT_LT(result.mean_beta, 0.25);
}

TEST(RewardExperiment, RoundWithoutOthersStakeCountsAsInfeasible) {
  // At 300 nodes the 13,026 leader and committee draws per round can
  // reach every node, leaving no Others stake (S_K = 0); with Fig 6(a)'s
  // seed one of these six rounds does. Such a round is infeasible, as an
  // empty role is for RoleBasedScheme::required_budget, not an error.
  RewardExperimentConfig config;
  config.node_count = 300;
  config.seed = 1000;
  config.runs = 2;
  config.rounds_per_run = 3;
  config.stakes = util::StakeDistribution::uniform(1, 200);
  RewardExperimentResult result;
  ASSERT_NO_THROW(result = run_reward_partial(config).finalize());
  EXPECT_GT(result.infeasible_rounds, 0u);
  EXPECT_EQ(result.bi_algos.size() + result.infeasible_rounds, 2u * 3u);
}

TEST(RewardExperiment, RejectsBadConfig) {
  RewardExperimentConfig config;
  config.node_count = 1;
  EXPECT_THROW(run_reward_partial(config), std::invalid_argument);
  config = RewardExperimentConfig{};
  config.runs = 0;
  EXPECT_THROW(run_reward_partial(config), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::sim
