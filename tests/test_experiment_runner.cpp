#include "sim/experiment_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/defection_experiment.hpp"
#include "sim/reward_experiment.hpp"
#include "sim/strategic_loop.hpp"

namespace roleshare::sim {
namespace {

TEST(ExperimentSpec, Validation) {
  EXPECT_NO_THROW(validate(ExperimentSpec{1, 1, 0, 1}));
  EXPECT_THROW(validate(ExperimentSpec{0, 1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(validate(ExperimentSpec{1, 0, 0, 1}), std::invalid_argument);
}

TEST(ExperimentSpec, ShardValidationAndDefaulting) {
  ExperimentSpec spec{8, 1, 0, 1};
  const ResolvedShard whole = resolve_shard(spec);
  EXPECT_EQ(whole.begin, 0u);
  EXPECT_EQ(whole.end, 8u);
  EXPECT_EQ(whole.count(), 8u);

  spec.shard = RunShard{2, 5};
  const ResolvedShard window = resolve_shard(spec);
  EXPECT_EQ(window.begin, 2u);
  EXPECT_EQ(window.count(), 3u);

  spec.shard = RunShard{5, 5};  // empty
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.shard = RunShard{4, 9};  // past the run count
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(ExperimentRunner, ShardExecutesGlobalRunWindow) {
  // A shard must run exactly its window's GLOBAL run indices with their
  // global streams — the property that makes sharded sweeps replay a
  // single-process execution.
  const auto body = [](std::size_t run, util::Rng& rng, const RunContext&) {
    return static_cast<double>(run) * 1000.0 + rng.uniform01();
  };
  ExperimentSpec whole{10, 1, 77, 2};
  const std::vector<double> reference = run_experiment(whole, body);

  ExperimentSpec window = whole;
  window.shard = RunShard{3, 7};
  const std::vector<double> sharded = run_experiment(window, body);
  ASSERT_EQ(sharded.size(), 4u);
  for (std::size_t i = 0; i < sharded.size(); ++i)
    EXPECT_EQ(sharded[i], reference[3 + i]) << "offset " << i;  // bitwise
}

TEST(ExperimentRunner, ShardReduceSeesGlobalIndicesInOrder) {
  ExperimentSpec spec{12, 1, 3, 4};
  spec.shard = RunShard{5, 9};
  std::vector<std::size_t> reduce_order;
  run_and_reduce(
      spec,
      [](std::size_t run, util::Rng&, const RunContext&) { return run; },
      [&](std::size_t run, std::size_t result) {
        EXPECT_EQ(run, result);
        reduce_order.push_back(run);
      });
  EXPECT_EQ(reduce_order, (std::vector<std::size_t>{5, 6, 7, 8}));
}

TEST(ResolveParallelism, OuterClampedToShardSize) {
  // A 2-run shard of a big sweep schedules like a 2-run experiment.
  ExperimentSpec spec;
  spec.runs = 10'000;
  spec.threads = 16;
  spec.inner_threads = 8;
  spec.shard = RunShard{100, 102};
  const ResolvedParallelism par = resolve_parallelism(spec);
  EXPECT_EQ(par.outer, 2u);
  EXPECT_EQ(par.inner, 1u);

  spec.shard = RunShard{100, 101};  // single-run shard: inner may engage
  const ResolvedParallelism single = resolve_parallelism(spec);
  EXPECT_EQ(single.outer, 1u);
  EXPECT_EQ(single.inner, 8u);
}

TEST(ExperimentRunner, RunRngIsRootSplitOfRunIndex) {
  util::Rng root(1234);
  for (const std::size_t run : {0u, 1u, 17u}) {
    util::Rng expected = root.split(run);
    util::Rng actual = rng_for_run(1234, run);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(expected(), actual());
    EXPECT_EQ(seed_for_run(1234, run), root.derive_seed(run));
  }
}

TEST(ExperimentRunner, ResultsIndexedByRunRegardlessOfExecutionOrder) {
  const auto body = [](std::size_t run, util::Rng& rng, const RunContext&) {
    return static_cast<double>(run) + rng.uniform01();
  };
  ExperimentSpec serial{32, 1, 9, 1};
  ExperimentSpec parallel = serial;
  parallel.threads = 4;
  const std::vector<double> a = run_experiment(serial, body);
  const std::vector<double> b = run_experiment(parallel, body);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (std::size_t run = 0; run < a.size(); ++run) {
    EXPECT_GE(a[run], static_cast<double>(run));
    EXPECT_LT(a[run], static_cast<double>(run) + 1.0);
    EXPECT_EQ(a[run], b[run]) << "run " << run;  // bitwise
  }
}

TEST(ExperimentRunner, ReduceRunsInRunIndexOrder) {
  ExperimentSpec spec{16, 1, 3, 4};
  std::vector<std::size_t> reduce_order;
  run_and_reduce(
      spec,
      [](std::size_t run, util::Rng&, const RunContext&) { return run; },
      [&](std::size_t run, std::size_t result) {
        EXPECT_EQ(run, result);
        reduce_order.push_back(run);
      });
  ASSERT_EQ(reduce_order.size(), 16u);
  for (std::size_t i = 0; i < reduce_order.size(); ++i)
    EXPECT_EQ(reduce_order[i], i);
}

TEST(ExperimentRunner, WorkerExceptionPropagates) {
  // Two runs fail; the lowest failing run's exception surfaces whatever
  // the scheduling, and every run is still attempted.
  for (const std::size_t threads : {1u, 4u}) {
    ExperimentSpec spec{8, 1, 3, threads};
    std::atomic<int> attempts{0};
    try {
      run_experiment(spec,
                     [&](std::size_t run, util::Rng&, const RunContext&) {
                       ++attempts;
                       if (run == 2) throw std::runtime_error("run two");
                       if (run == 5) throw std::runtime_error("run five");
                       return 0;
                     });
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run two") << "threads=" << threads;
    }
    EXPECT_EQ(attempts.load(), 8) << "threads=" << threads;
  }
}

// The acceptance-criteria experiments: parallel aggregates must be
// byte-identical to serial ones.

DefectionExperimentConfig small_defection_config(std::size_t threads) {
  DefectionExperimentConfig config;
  config.network.node_count = 60;
  config.network.seed = 42;
  config.network.defection_rate = 0.15;
  config.runs = 6;
  config.rounds = 4;
  config.threads = threads;
  return config;
}

TEST(ExperimentRunner, DefectionExperimentBitIdenticalAcrossThreadCounts) {
  const DefectionSeries serial =
      run_defection_experiment(small_defection_config(1));
  const DefectionSeries parallel =
      run_defection_experiment(small_defection_config(4));
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    EXPECT_EQ(serial.rounds[r].final_pct, parallel.rounds[r].final_pct);
    EXPECT_EQ(serial.rounds[r].tentative_pct,
              parallel.rounds[r].tentative_pct);
    EXPECT_EQ(serial.rounds[r].none_pct, parallel.rounds[r].none_pct);
  }
  EXPECT_EQ(serial.runs_with_progress, parallel.runs_with_progress);
}

RewardExperimentConfig small_reward_config(std::size_t threads) {
  RewardExperimentConfig config;
  config.node_count = 2'000;
  config.seed = 7;
  config.runs = 5;
  config.rounds_per_run = 3;
  config.threads = threads;
  return config;
}

TEST(ExperimentRunner, RewardExperimentBitIdenticalAcrossThreadCounts) {
  const RewardExperimentResult serial =
      run_reward_partial(small_reward_config(1)).finalize();
  const RewardExperimentResult parallel =
      run_reward_partial(small_reward_config(4)).finalize();
  EXPECT_EQ(serial.bi_algos, parallel.bi_algos);  // element-wise bitwise
  EXPECT_EQ(serial.bi_per_round_mean, parallel.bi_per_round_mean);
  EXPECT_EQ(serial.mean_bi, parallel.mean_bi);
  EXPECT_EQ(serial.mean_total_stake, parallel.mean_total_stake);
  EXPECT_EQ(serial.mean_alpha, parallel.mean_alpha);
  EXPECT_EQ(serial.mean_beta, parallel.mean_beta);
  EXPECT_EQ(serial.infeasible_rounds, parallel.infeasible_rounds);
}

TEST(ExperimentRunner, StrategicEnsembleBitIdenticalAcrossThreadCounts) {
  StrategicEnsembleConfig config;
  config.base.network.node_count = 60;
  config.base.network.seed = 5;
  config.base.rounds = 3;
  config.base.scheme = econ::SchemeKind::RoleBased;
  config.runs = 4;
  config.threads = 1;
  const StrategicEnsembleResult serial = run_strategic_ensemble(config);
  config.threads = 4;
  const StrategicEnsembleResult parallel = run_strategic_ensemble(config);
  EXPECT_EQ(serial.cooperation_series, parallel.cooperation_series);
  EXPECT_EQ(serial.final_series, parallel.final_series);
  EXPECT_EQ(serial.reward_series, parallel.reward_series);
  EXPECT_EQ(serial.mean_total_reward_algos,
            parallel.mean_total_reward_algos);
}

TEST(OutcomeMetrics, MergeMatchesDirectRecording) {
  OutcomeMetrics direct(2), left(2), right(2);
  direct.record(0, 80.0, 15.0, 5.0);
  direct.record(0, 60.0, 30.0, 10.0);
  direct.record(1, 90.0, 10.0, 0.0);
  left.record(0, 80.0, 15.0, 5.0);
  right.record(0, 60.0, 30.0, 10.0);
  right.record(1, 90.0, 10.0, 0.0);
  left.merge(right);
  EXPECT_EQ(left.runs_recorded(0), direct.runs_recorded(0));
  const auto a = direct.aggregate(0.0);
  const auto b = left.aggregate(0.0);
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].final_pct, b[r].final_pct);
    EXPECT_EQ(a[r].tentative_pct, b[r].tentative_pct);
    EXPECT_EQ(a[r].none_pct, b[r].none_pct);
  }
}

TEST(PerRoundSamples, MergePreservesInsertionOrder) {
  PerRoundSamples a(2), b(2);
  a.record(0, 1.0);
  a.record(1, 2.0);
  b.record(0, 3.0);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.samples(0), (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(a.count(1), 1u);
  PerRoundSamples mismatched(3);
  EXPECT_THROW(a.merge(mismatched), std::invalid_argument);
}

TEST(PerRoundSamples, MergeWithAsymmetricPerRoundCounts) {
  // Runs of different lengths: the left operand recorded rounds {0, 1},
  // the right only round 1 plus extra samples for round 2 the left never
  // saw. Merge must append per round without requiring equal counts.
  PerRoundSamples a(3), b(3);
  a.record(0, 1.0);
  a.record(1, 2.0);
  b.record(1, 4.0);
  b.record(2, 8.0);
  b.record(2, 16.0);
  a.merge(b);
  EXPECT_EQ(a.count(0), 1u);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.count(2), 2u);
  EXPECT_EQ(a.samples(1), (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(a.samples(2), (std::vector<double>{8.0, 16.0}));
  // The merged matrix reduces normally; no round is empty here.
  const auto means = a.mean_series();
  EXPECT_DOUBLE_EQ(means[0], 1.0);
  EXPECT_DOUBLE_EQ(means[1], 3.0);
  EXPECT_DOUBLE_EQ(means[2], 12.0);
}

TEST(PerRoundSamples, EmptyRoundsReduceToNaNDeterministically) {
  // A round with zero samples (churn emptying a cohort) must yield quiet
  // NaN in every series — never UB, a throw, or a fabricated 0.0.
  PerRoundSamples samples(3);
  samples.record(0, 5.0);
  samples.record(2, 7.0);
  EXPECT_TRUE(samples.empty_round(1));
  EXPECT_FALSE(samples.empty_round(0));
  for (const auto& series :
       {samples.trimmed_mean_series(0.2), samples.mean_series(),
        samples.percentile_series(50.0)}) {
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0], 5.0);
    EXPECT_TRUE(std::isnan(series[1]));
    EXPECT_EQ(series[2], 7.0);
  }
}

TEST(ResolveParallelism, OuterClampedToRunCount) {
  // A single-run workload must not let the outer level block inner
  // parallelism (the round_latency shape), and more generally outer can
  // never exceed the run count.
  ExperimentSpec single;
  single.runs = 1;
  single.threads = 8;
  single.inner_threads = 4;
  const ResolvedParallelism a = resolve_parallelism(single);
  EXPECT_EQ(a.outer, 1u);
  EXPECT_EQ(a.inner, 4u);

  ExperimentSpec few;
  few.runs = 3;
  few.threads = 16;
  few.inner_threads = 4;
  const ResolvedParallelism b = resolve_parallelism(few);
  EXPECT_EQ(b.outer, 3u);
  EXPECT_EQ(b.inner, 1u);  // outer still parallel -> inner forced serial

  // Exactly one level may ever be > 1 — for every combination.
  for (const std::size_t runs : {1u, 2u, 7u}) {
    for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
      for (const std::size_t inner : {0u, 1u, 2u, 8u}) {
        ExperimentSpec spec;
        spec.runs = runs;
        spec.threads = threads;
        spec.inner_threads = inner;
        const ResolvedParallelism par = resolve_parallelism(spec);
        EXPECT_TRUE(par.outer == 1 || par.inner == 1)
            << "runs=" << runs << " threads=" << threads
            << " inner=" << inner;
        EXPECT_LE(par.outer, runs);
      }
    }
  }
}

}  // namespace
}  // namespace roleshare::sim
