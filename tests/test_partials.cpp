// The universal experiment-partial layer (sim/partial.hpp): envelope
// compatibility checks that name both sides, cross-kind rejection, JSON
// round-trips for the experiment payloads, payload entries checked
// against their envelope, kill-and-resume bit-identity, property-style
// randomized shard splits, shard-window tiling validation, and the
// ScalarBank reduction primitive.
#include "sim/partial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/defection_experiment.hpp"
#include "sim/longhorizon.hpp"
#include "sim/reward_experiment.hpp"
#include "sim/strategic_loop.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace roleshare::sim {
namespace {

constexpr std::size_t kRuns = 6;

DefectionExperimentConfig small_defection(AggBackend agg) {
  DefectionExperimentConfig config;
  config.network.node_count = 50;
  config.network.seed = 4242;
  config.network.defection_rate = 0.15;
  config.runs = kRuns;
  config.rounds = 3;
  config.agg = agg;
  return config;
}

RewardExperimentConfig small_reward(AggBackend agg) {
  RewardExperimentConfig config;
  config.node_count = 2'000;
  config.seed = 7;
  config.runs = kRuns;
  config.rounds_per_run = 2;
  config.agg = agg;
  return config;
}

StrategicEnsembleConfig small_strategic(AggBackend agg) {
  StrategicEnsembleConfig config;
  config.base.network.node_count = 40;
  config.base.network.seed = 5;
  config.base.rounds = 3;
  config.base.scheme = econ::SchemeKind::RoleBased;
  config.runs = kRuns;
  config.agg = agg;
  return config;
}

template <typename Config, typename RunPartialFn>
auto partial_for_window(Config config, std::size_t begin, std::size_t end,
                        RunPartialFn run) {
  config.shard = RunShard{begin, end};
  return run(config);
}

// ---------------------------------------------------------------------
// Envelope contract.

TEST(PartialEnvelope, ValidatesShape) {
  EXPECT_NO_THROW(make_envelope("defection", "abc", AggBackend::Exact, 8, 3,
                                0, 8));
  // Empty window.
  EXPECT_THROW(make_envelope("defection", "abc", AggBackend::Exact, 8, 3, 4,
                             4),
               std::invalid_argument);
  // Window past the run count.
  EXPECT_THROW(make_envelope("defection", "abc", AggBackend::Exact, 8, 3, 4,
                             9),
               std::invalid_argument);
  // Zero rounds.
  EXPECT_THROW(make_envelope("defection", "abc", AggBackend::Exact, 8, 0, 0,
                             8),
               std::invalid_argument);
}

TEST(PartialEnvelope, ExtendWindowGuards) {
  PartialEnvelope env =
      make_envelope("defection", "abc", AggBackend::Exact, 8, 3, 0, 4);
  env.extend_window(8);
  EXPECT_EQ(env.window_end, 8u);
  EXPECT_FALSE(env.complete());
  EXPECT_THROW(env.extend_window(3), std::invalid_argument);  // < run_end
  EXPECT_THROW(env.extend_window(9), std::invalid_argument);  // > runs_total
}

TEST(PartialEnvelope, CheckMergeNamesBothSidesOnEveryMismatch) {
  const auto base = [] {
    return make_envelope("defection", "hash-a", AggBackend::Exact, 8, 3, 0,
                         4);
  };
  const auto expect_names = [](const PartialEnvelope& a,
                               const PartialEnvelope& b,
                               const std::string& lhs,
                               const std::string& rhs) {
    try {
      a.check_merge(b);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(lhs), std::string::npos) << what;
      EXPECT_NE(what.find(rhs), std::string::npos) << what;
    }
  };

  PartialEnvelope cross_kind =
      make_envelope("reward", "hash-a", AggBackend::Exact, 8, 3, 4, 8);
  expect_names(base(), cross_kind, "\"defection\"", "\"reward\"");

  PartialEnvelope wrong_hash =
      make_envelope("defection", "hash-b", AggBackend::Exact, 8, 3, 4, 8);
  expect_names(base(), wrong_hash, "hash-a", "hash-b");

  PartialEnvelope wrong_backend =
      make_envelope("defection", "hash-a", AggBackend::Streaming, 8, 3, 4, 8);
  expect_names(base(), wrong_backend, "exact", "streaming");

  PartialEnvelope wrong_runs =
      make_envelope("defection", "hash-a", AggBackend::Exact, 9, 3, 4, 8);
  expect_names(base(), wrong_runs, "8 total runs", "next has 9");

  PartialEnvelope wrong_rounds =
      make_envelope("defection", "hash-a", AggBackend::Exact, 8, 4, 4, 8);
  expect_names(base(), wrong_rounds, "3 rounds", "next has 4");

  PartialEnvelope gapped =
      make_envelope("defection", "hash-a", AggBackend::Exact, 8, 3, 6, 8);
  expect_names(base(), gapped, "ends at run 4", "begins at run 6");
}

TEST(PartialEnvelope, JsonRoundTrip) {
  PartialEnvelope env =
      make_envelope("strategic", "deadbeef", AggBackend::Streaming, 10, 4, 2,
                    7);
  env.extend_window(9);
  const PartialEnvelope restored =
      PartialEnvelope::from_json(util::json::parse(env.to_json().dump()));
  EXPECT_EQ(restored.kind, env.kind);
  EXPECT_EQ(restored.spec_hash, env.spec_hash);
  EXPECT_EQ(restored.backend, env.backend);
  EXPECT_EQ(restored.runs_total, env.runs_total);
  EXPECT_EQ(restored.rounds, env.rounds);
  EXPECT_EQ(restored.run_begin, env.run_begin);
  EXPECT_EQ(restored.run_end, env.run_end);
  EXPECT_EQ(restored.window_end, env.window_end);
  EXPECT_FALSE(restored.complete());
}

// ---------------------------------------------------------------------
// Cross-kind and cross-experiment rejection on real partials.

TEST(Partials, CrossKindLoadRejectedNamingBothKinds) {
  const RewardPartial reward = run_reward_partial(
      small_reward(AggBackend::Exact));
  const util::json::Value doc =
      util::json::parse(reward.to_json().dump());
  try {
    DefectionPartial::from_json(doc);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"reward\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"defection\""), std::string::npos) << what;
  }
  // And the other two directions, spot-checked.
  EXPECT_THROW(StrategicPartial::from_json(doc), std::invalid_argument);
  EXPECT_NO_THROW(RewardPartial::from_json(doc));
}

TEST(Partials, MergeRejectsDifferentExperimentsNamingBothHashes) {
  DefectionPartial first = partial_for_window(
      small_defection(AggBackend::Exact), 0, 3, run_defection_partial);
  DefectionExperimentConfig other_config = small_defection(AggBackend::Exact);
  other_config.network.seed = 999;  // a different experiment
  const DefectionPartial alien =
      partial_for_window(other_config, 3, kRuns, run_defection_partial);
  ASSERT_NE(first.envelope().spec_hash, alien.envelope().spec_hash);
  try {
    first.merge(alien);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(first.envelope().spec_hash), std::string::npos)
        << what;
    EXPECT_NE(what.find(alien.envelope().spec_hash), std::string::npos)
        << what;
  }
}

TEST(Partials, SpecHashIgnoresThreadAndShardKnobs) {
  DefectionExperimentConfig a = small_defection(AggBackend::Exact);
  DefectionExperimentConfig b = a;
  b.threads = 7;
  b.inner_threads = 3;
  b.shard = RunShard{2, 4};
  EXPECT_EQ(spec_hash_hex(defection_spec_echo(a)),
            spec_hash_hex(defection_spec_echo(b)));
  b.network.defection_rate = 0.3;
  EXPECT_NE(spec_hash_hex(defection_spec_echo(a)),
            spec_hash_hex(defection_spec_echo(b)));
}

// ---------------------------------------------------------------------
// JSON round-trips for all three payloads, both backends.

TEST(Partials, JsonRoundTripIsExactForAllThreeFamilies) {
  for (const AggBackend agg : {AggBackend::Exact, AggBackend::Streaming}) {
    {
      const DefectionPartial partial =
          run_defection_partial(small_defection(agg));
      const DefectionPartial restored = DefectionPartial::from_json(
          util::json::parse(partial.to_json().dump()));
      EXPECT_EQ(restored.to_json().dump(), partial.to_json().dump())
          << "defection/" << to_string(agg);
    }
    {
      const RewardPartial partial = run_reward_partial(small_reward(agg));
      const RewardPartial restored = RewardPartial::from_json(
          util::json::parse(partial.to_json().dump()));
      EXPECT_EQ(restored.to_json().dump(), partial.to_json().dump())
          << "reward/" << to_string(agg);
      const RewardExperimentResult a = partial.finalize();
      const RewardExperimentResult b = restored.finalize();
      EXPECT_EQ(a.bi_algos, b.bi_algos);
      EXPECT_EQ(a.bi_per_round_mean, b.bi_per_round_mean);
      EXPECT_EQ(a.mean_bi, b.mean_bi);
      EXPECT_EQ(a.mean_total_stake, b.mean_total_stake);
      EXPECT_EQ(a.infeasible_rounds, b.infeasible_rounds);
    }
    {
      const StrategicPartial partial =
          run_strategic_partial(small_strategic(agg));
      const StrategicPartial restored = StrategicPartial::from_json(
          util::json::parse(partial.to_json().dump()));
      EXPECT_EQ(restored.to_json().dump(), partial.to_json().dump())
          << "strategic/" << to_string(agg);
      const StrategicEnsembleResult a = partial.finalize();
      const StrategicEnsembleResult b = restored.finalize();
      EXPECT_EQ(a.cooperation_series, b.cooperation_series);
      EXPECT_EQ(a.final_series, b.final_series);
      EXPECT_EQ(a.reward_series, b.reward_series);
      EXPECT_EQ(a.mean_total_reward_algos, b.mean_total_reward_algos);
      EXPECT_EQ(a.mean_final_cooperation, b.mean_final_cooperation);
    }
  }
}

// ---------------------------------------------------------------------
// Every payload entry must agree with its envelope on load.

LongHorizonConfig small_longhorizon(AggBackend agg) {
  LongHorizonConfig config;
  config.node_count = 200;
  config.seed = 17;
  config.runs = 2;
  config.rounds_per_run = 6;
  config.agg = agg;
  return config;
}

// `object` with the member at path[depth...] replaced by `entry`; every
// other member keeps its place.
util::json::Value with_entry(const util::json::Value& object,
                             const std::vector<std::string>& path,
                             const util::json::Value& entry,
                             std::size_t depth = 0) {
  util::json::Value out = util::json::Value::object();
  for (const auto& [key, value] : object.as_object()) {
    if (key != path[depth]) {
      out.set(key, value);
    } else {
      out.set(key, depth + 1 == path.size()
                       ? entry
                       : with_entry(value, path, entry, depth + 1));
    }
  }
  return out;
}

// Splices the payload entry at `path` of `donor` into `base` and expects
// the load to be refused naming the entry ("metrics.tentative").
template <typename PartialT>
void expect_spliced_entry_refused(const PartialT& base, const PartialT& donor,
                                  const std::vector<std::string>& path) {
  std::vector<std::string> full{"payload"};
  full.insert(full.end(), path.begin(), path.end());
  const util::json::Value donor_doc = donor.to_json();
  const util::json::Value* entry = &donor_doc;
  for (const std::string& key : full) entry = &entry->at(key);
  std::string name;
  for (const std::string& key : path) name += (name.empty() ? "" : ".") + key;

  const util::json::Value spliced =
      with_entry(base.to_json(), full, *entry);
  try {
    PartialT::from_json(spliced);
    ADD_FAILURE() << "a spliced \"" << name << "\" entry loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"" + name + "\""),
              std::string::npos)
        << e.what();
  }
}

TEST(Partials, PayloadEntriesMustMatchTheirEnvelope) {
  {
    const DefectionExperimentConfig config = small_defection(AggBackend::Exact);
    DefectionExperimentConfig shorter = config;
    shorter.rounds = 2;
    const DefectionPartial base = run_defection_partial(config);
    const DefectionPartial fewer_rounds = run_defection_partial(shorter);
    const DefectionPartial streaming =
        run_defection_partial(small_defection(AggBackend::Streaming));
    expect_spliced_entry_refused(base, fewer_rounds, {"metrics", "final"});
    expect_spliced_entry_refused(base, fewer_rounds,
                                 {"metrics", "tentative"});
    expect_spliced_entry_refused(base, streaming, {"metrics", "none"});
    expect_spliced_entry_refused(base, streaming, {"live"});
  }
  {
    const RewardExperimentConfig config = small_reward(AggBackend::Exact);
    RewardExperimentConfig shorter = config;
    shorter.rounds_per_run = 1;
    const RewardPartial base = run_reward_partial(config);
    expect_spliced_entry_refused(base, run_reward_partial(shorter),
                                 {"per_round"});
    expect_spliced_entry_refused(
        base, run_reward_partial(small_reward(AggBackend::Streaming)),
        {"stake"});
  }
  {
    const StrategicEnsembleConfig config = small_strategic(AggBackend::Exact);
    StrategicEnsembleConfig shorter = config;
    shorter.base.rounds = 2;
    const StrategicPartial base = run_strategic_partial(config);
    expect_spliced_entry_refused(base, run_strategic_partial(shorter),
                                 {"final"});
    expect_spliced_entry_refused(
        base, run_strategic_partial(small_strategic(AggBackend::Streaming)),
        {"final_coop"});
  }
  {
    const LongHorizonConfig config = small_longhorizon(AggBackend::Exact);
    LongHorizonConfig shorter = config;
    shorter.rounds_per_run = 4;
    const LongHorizonPartial base = run_longhorizon_partial(config);
    expect_spliced_entry_refused(base, run_longhorizon_partial(shorter),
                                 {"corr"});
    expect_spliced_entry_refused(
        base,
        run_longhorizon_partial(small_longhorizon(AggBackend::Streaming)),
        {"paid"});
  }
}

// Every payload records at most one sample per executed run and round. A
// streaming round that claims more is refused naming the entry and the
// round, before its reservoir draws are replayed: an edited count could
// otherwise stall the read.
TEST(Partials, RoundCountIsBoundedByTheExecutedRuns) {
  DefectionExperimentConfig config = small_defection(AggBackend::Streaming);
  config.runs = 2;
  const util::json::Value doc = run_defection_partial(config).to_json();
  const std::vector<std::string> path{"payload", "metrics", "final",
                                      "round_stats"};
  const auto& rounds =
      doc.at("payload").at("metrics").at("final").at("round_stats").as_array();
  ASSERT_EQ(rounds[0].at("n").as_size(), 2u);
  util::json::Value stats = util::json::Value::array();
  stats.push_back(with_entry(with_entry(rounds[0], {"n"}, util::json::Value(3)),
                             {"seen"}, util::json::Value(3)));
  for (std::size_t r = 1; r < rounds.size(); ++r) stats.push_back(rounds[r]);
  try {
    DefectionPartial::from_json(with_entry(doc, path, stats));
    ADD_FAILURE() << "a 2-run partial counting 3 samples in a round loaded";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("\"metrics.final\", round 0"), std::string::npos)
        << message;
    EXPECT_NE(message.find("counts 3 samples but its partial ran 2 runs"),
              std::string::npos)
        << message;
  }
}

// ---------------------------------------------------------------------
// Kill-and-resume: checkpoint after R runs, "crash" (serialize +
// reload), finish the window, compare bit-identical to an uninterrupted
// execution. Exercised for every family under the exact backend.

template <typename Config, typename RunPartialFn>
void expect_kill_and_resume_bit_identical(const Config& config,
                                          RunPartialFn run) {
  const auto uninterrupted = partial_for_window(config, 0, kRuns, run);

  // Checkpoint at run 2 — the partial declares the full window, then the
  // process "dies" and the checkpoint file is all that survives.
  auto checkpoint = partial_for_window(config, 0, 2, run);
  checkpoint.extend_window(kRuns);
  EXPECT_FALSE(checkpoint.complete());
  auto resumed = std::decay_t<decltype(checkpoint)>::from_json(
      util::json::parse(checkpoint.to_json().dump()));
  EXPECT_EQ(resumed.run_end(), 2u);
  EXPECT_EQ(resumed.window_end(), kRuns);

  // Resume: execute the remainder in two sub-windows, with a second
  // crash-and-reload between them.
  resumed.merge(partial_for_window(config, 2, 4, run));
  resumed = std::decay_t<decltype(checkpoint)>::from_json(
      util::json::parse(resumed.to_json().dump()));
  resumed.merge(partial_for_window(config, 4, kRuns, run));

  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.to_json().dump(), uninterrupted.to_json().dump());
}

TEST(Partials, KillAndResumeBitIdenticalDefection) {
  expect_kill_and_resume_bit_identical(small_defection(AggBackend::Exact),
                                       run_defection_partial);
}

TEST(Partials, KillAndResumeBitIdenticalReward) {
  expect_kill_and_resume_bit_identical(small_reward(AggBackend::Exact),
                                       run_reward_partial);
}

TEST(Partials, KillAndResumeBitIdenticalStrategic) {
  expect_kill_and_resume_bit_identical(small_strategic(AggBackend::Exact),
                                       run_strategic_partial);
}

// ---------------------------------------------------------------------
// Property-style randomized shard splits: a random run range split into
// 1..5 random contiguous shards, merged in order, must reproduce the
// single-process partial bit for bit (exact) or within the documented
// streaming tolerance.

std::vector<std::size_t> random_split(util::Rng& rng, std::size_t runs) {
  const std::size_t shards = 1 + rng.uniform_int(0, 4);
  std::vector<std::size_t> cuts{0, runs};
  for (std::size_t s = 1; s < shards; ++s)
    cuts.push_back(1 + static_cast<std::size_t>(
                           rng.uniform_int(0, static_cast<long long>(runs) - 2)));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;  // boundaries 0 = c0 < c1 < ... < ck = runs
}

template <typename Config, typename RunPartialFn>
auto merge_random_shards(const Config& config,
                         const std::vector<std::size_t>& cuts,
                         RunPartialFn run) {
  auto merged = partial_for_window(config, cuts[0], cuts[1], run);
  for (std::size_t i = 1; i + 1 < cuts.size(); ++i)
    merged.merge(partial_for_window(config, cuts[i], cuts[i + 1], run));
  return merged;
}

void expect_series_close(const std::vector<double>& a,
                         const std::vector<double>& b, double tol,
                         const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << label << " index " << i;
}

TEST(Partials, RandomShardSplitsExactModeByteIdenticalAllFamilies) {
  util::Rng rng(2026);
  for (std::size_t trial = 0; trial < 3; ++trial) {
    const std::vector<std::size_t> cuts = random_split(rng, kRuns);
    {
      const auto config = small_defection(AggBackend::Exact);
      const auto whole =
          partial_for_window(config, 0, kRuns, run_defection_partial);
      EXPECT_EQ(merge_random_shards(config, cuts, run_defection_partial)
                    .to_json()
                    .dump(),
                whole.to_json().dump())
          << "defection trial " << trial;
    }
    {
      const auto config = small_reward(AggBackend::Exact);
      const auto whole =
          partial_for_window(config, 0, kRuns, run_reward_partial);
      EXPECT_EQ(merge_random_shards(config, cuts, run_reward_partial)
                    .to_json()
                    .dump(),
                whole.to_json().dump())
          << "reward trial " << trial;
    }
    {
      const auto config = small_strategic(AggBackend::Exact);
      const auto whole =
          partial_for_window(config, 0, kRuns, run_strategic_partial);
      EXPECT_EQ(merge_random_shards(config, cuts, run_strategic_partial)
                    .to_json()
                    .dump(),
                whole.to_json().dump())
          << "strategic trial " << trial;
    }
  }
}

TEST(Partials, RandomShardSplitsStreamingModeWithinTolerance) {
  // Streaming merges are not bit-identical (Chan mean combine, P² falls
  // back to the reservoir), but at test scale — runs far below the
  // reservoir capacity — every mean-type series must agree to rounding
  // with the exact single-process baseline.
  util::Rng rng(77);
  for (std::size_t trial = 0; trial < 2; ++trial) {
    const std::vector<std::size_t> cuts = random_split(rng, kRuns);
    {
      const DefectionSeries exact =
          run_defection_experiment(small_defection(AggBackend::Exact));
      const auto merged = merge_random_shards(
          small_defection(AggBackend::Streaming), cuts,
          run_defection_partial);
      const DefectionSeries streamed = merged.finalize(0.2);
      ASSERT_EQ(streamed.rounds.size(), exact.rounds.size());
      for (std::size_t r = 0; r < exact.rounds.size(); ++r) {
        EXPECT_NEAR(streamed.rounds[r].final_pct, exact.rounds[r].final_pct,
                    1e-9);
        EXPECT_NEAR(streamed.rounds[r].none_pct, exact.rounds[r].none_pct,
                    1e-9);
      }
      expect_series_close(streamed.live_series, exact.live_series, 1e-9,
                          "defection live");
      EXPECT_EQ(streamed.runs_with_progress, exact.runs_with_progress);
    }
    {
      const RewardExperimentResult exact =
          run_reward_partial(small_reward(AggBackend::Exact)).finalize();
      const RewardExperimentResult streamed =
          merge_random_shards(small_reward(AggBackend::Streaming), cuts,
                              run_reward_partial)
              .finalize();
      expect_series_close(streamed.bi_per_round_mean, exact.bi_per_round_mean,
                          1e-9, "reward per-round");
      EXPECT_NEAR(streamed.mean_bi, exact.mean_bi, 1e-9);
      EXPECT_NEAR(streamed.mean_total_stake, exact.mean_total_stake, 1.0);
      EXPECT_EQ(streamed.infeasible_rounds, exact.infeasible_rounds);
      EXPECT_TRUE(streamed.bi_algos.empty());  // not materialized
    }
    {
      const StrategicEnsembleResult exact =
          run_strategic_ensemble(small_strategic(AggBackend::Exact));
      const StrategicEnsembleResult streamed =
          merge_random_shards(small_strategic(AggBackend::Streaming), cuts,
                              run_strategic_partial)
              .finalize();
      expect_series_close(streamed.cooperation_series,
                          exact.cooperation_series, 1e-9, "strategic coop");
      expect_series_close(streamed.final_series, exact.final_series, 1e-9,
                          "strategic final");
      expect_series_close(streamed.reward_series, exact.reward_series, 1e-9,
                          "strategic reward");
      EXPECT_NEAR(streamed.mean_total_reward_algos,
                  exact.mean_total_reward_algos, 1e-9);
      EXPECT_NEAR(streamed.mean_final_cooperation,
                  exact.mean_final_cooperation, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------
// Shard-window tiling validation (the merge_partials pre-flight).

TEST(ShardTiling, AcceptsExactTilings) {
  EXPECT_NO_THROW(check_shard_tiling({{0, 8, 8, "only"}}, 8));
  EXPECT_NO_THROW(check_shard_tiling(
      {{4, 8, 8, "b"}, {0, 2, 2, "a"}, {2, 4, 4, "mid"}}, 8));
}

TEST(ShardTiling, RejectsOverlapNamingBothShards) {
  try {
    check_shard_tiling({{0, 4, 4, "s0.json"}, {2, 8, 8, "s1.json"}}, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("overlap"), std::string::npos) << what;
    EXPECT_NE(what.find("s0.json"), std::string::npos) << what;
    EXPECT_NE(what.find("s1.json"), std::string::npos) << what;
  }
}

TEST(ShardTiling, RejectsGapNamingBothShards) {
  try {
    check_shard_tiling({{0, 2, 2, "s0.json"}, {4, 8, 8, "s1.json"}}, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gap"), std::string::npos) << what;
    EXPECT_NE(what.find("ends at run 2"), std::string::npos) << what;
    EXPECT_NE(what.find("begins at run 4"), std::string::npos) << what;
  }
}

TEST(ShardTiling, RejectsDuplicateWindows) {
  EXPECT_THROW(
      check_shard_tiling({{0, 4, 4, "s0.json"}, {0, 4, 4, "dup.json"}}, 8),
      std::invalid_argument);
}

TEST(ShardTiling, RejectsIncompleteCoverage) {
  try {
    check_shard_tiling({{0, 2, 2, "s0.json"}, {2, 6, 6, "s1.json"}}, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
  }
  // Missing the head of the range is just as incomplete.
  EXPECT_THROW(check_shard_tiling({{2, 8, 8, "tail.json"}}, 8),
               std::invalid_argument);
}

TEST(ShardTiling, RejectsUnfinishedCheckpoints) {
  try {
    check_shard_tiling({{0, 4, 4, "s0.json"}, {4, 6, 8, "ck.json"}}, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unfinished checkpoint"), std::string::npos) << what;
    EXPECT_NE(what.find("ck.json"), std::string::npos) << what;
    EXPECT_NE(what.find("resume"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------
// ScalarBank.

TEST(ScalarBank, ExactMeanMatchesWelfordReplayAndMergeConcatenates) {
  util::Rng rng(11);
  ScalarBank whole(AggBackend::Exact);
  ScalarBank left(AggBackend::Exact);
  ScalarBank right(AggBackend::Exact);
  util::RunningStats reference;
  for (std::size_t i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.record(x);
    (i < 200 ? left : right).record(x);
    reference.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.samples(), whole.samples());  // element-wise bitwise
  EXPECT_EQ(left.mean(), whole.mean());
  EXPECT_EQ(whole.mean(), reference.mean());  // the Welford replay
  EXPECT_EQ(left.sum(), whole.sum());
  EXPECT_EQ(left.count(), 500u);
}

TEST(ScalarBank, StreamingKeepsNoSamplesAndMergesByChan) {
  util::Rng rng(13);
  ScalarBank whole(AggBackend::Streaming);
  ScalarBank left(AggBackend::Streaming);
  ScalarBank right(AggBackend::Streaming);
  for (std::size_t i = 0; i < 300; ++i) {
    const double x = rng.uniform_real(0.0, 10.0);
    whole.record(x);
    (i < 100 ? left : right).record(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.sum(), whole.sum(), 1e-9);
  EXPECT_THROW(left.samples(), std::logic_error);
  // O(1) memory regardless of the sample count.
  EXPECT_EQ(left.memory_bytes(), sizeof(ScalarBank));
}

TEST(ScalarBank, MergeRejectsBackendMismatchNamingBoth) {
  ScalarBank exact(AggBackend::Exact);
  ScalarBank streaming(AggBackend::Streaming);
  try {
    exact.merge(streaming);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("this is exact"), std::string::npos) << what;
    EXPECT_NE(what.find("other is streaming"), std::string::npos) << what;
  }
}

TEST(ScalarBank, JsonRoundTripBothBackends) {
  util::Rng rng(17);
  for (const AggBackend backend :
       {AggBackend::Exact, AggBackend::Streaming}) {
    ScalarBank bank(backend);
    for (std::size_t i = 0; i < 64; ++i) bank.record(rng.normal(0.0, 1.0));
    const ScalarBank restored =
        ScalarBank::from_json(util::json::parse(bank.to_json().dump()));
    EXPECT_EQ(restored.backend(), backend);
    EXPECT_EQ(restored.count(), bank.count());
    EXPECT_EQ(restored.mean(), bank.mean());
    EXPECT_EQ(restored.to_json().dump(), bank.to_json().dump());
  }
  ScalarBank empty(AggBackend::Exact);
  EXPECT_TRUE(std::isnan(empty.mean()));
  EXPECT_EQ(empty.sum(), 0.0);
}

}  // namespace
}  // namespace roleshare::sim
