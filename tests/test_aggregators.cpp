// The mergeable per-round reduction: exact-vs-streaming agreement, merge
// diagnostics, JSON round-trips, O(rounds) memory, and the sharded
// defection-experiment workflow's bit-identity guarantee.
#include "sim/aggregators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"
#include "sim/defection_experiment.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace roleshare::sim {
namespace {

// ---------------------------------------------------------------------
// Accumulator-level properties.

TEST(AggBackend, NamesRoundTrip) {
  EXPECT_STREQ(to_string(AggBackend::Exact), "exact");
  EXPECT_STREQ(to_string(AggBackend::Streaming), "streaming");
  EXPECT_EQ(parse_agg_backend("exact"), AggBackend::Exact);
  EXPECT_EQ(parse_agg_backend("streaming"), AggBackend::Streaming);
  EXPECT_THROW(parse_agg_backend("columnar"), std::invalid_argument);
}

TEST(RoundAccumulator, ExactSeriesAreTheStatsOfEachRound) {
  // The exact backend reduces each round's samples, in record order,
  // with util::stats: the paper's trimmed mean, the mean, percentiles.
  util::Rng rng(3);
  RoundAccumulator acc(AggBackend::Exact, 4);
  std::vector<std::vector<double>> rows(4);
  for (std::size_t run = 0; run < 40; ++run) {
    for (std::size_t r = 0; r < 4; ++r) {
      const double x = rng.normal(50.0, 20.0);
      rows[r].push_back(x);
      acc.record(r, x);
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(acc.count(r), 40u);
    EXPECT_EQ(acc.trimmed_mean_series(0.2)[r],
              util::trimmed_mean(rows[r], 0.2));
    EXPECT_EQ(acc.mean_series()[r], util::mean(rows[r]));
    EXPECT_EQ(acc.percentile_series(75.0)[r], util::percentile(rows[r], 75.0));
  }
}

TEST(RoundAccumulator, BoundsChecked) {
  for (const AggBackend backend : {AggBackend::Exact, AggBackend::Streaming}) {
    RoundAccumulator acc(backend, 2);
    EXPECT_THROW(acc.record(2, 1.0), std::invalid_argument)
        << to_string(backend);
    EXPECT_THROW(static_cast<void>(acc.count(5)), std::invalid_argument)
        << to_string(backend);
    EXPECT_THROW(RoundAccumulator(backend, 0), std::invalid_argument)
        << to_string(backend);
  }
}

TEST(RoundAccumulator, MergeMismatchNamesBothRoundCounts) {
  for (const AggBackend backend : {AggBackend::Exact, AggBackend::Streaming}) {
    RoundAccumulator a(backend, 2);
    const RoundAccumulator b(backend, 3);
    try {
      a.merge(b);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("this has 2 rounds"), std::string::npos) << what;
      EXPECT_NE(what.find("other has 3"), std::string::npos) << what;
    }
  }
}

TEST(RoundAccumulator, MergeRejectsBackendMismatchNamingBoth) {
  RoundAccumulator exact(AggBackend::Exact, 2);
  const RoundAccumulator streaming(AggBackend::Streaming, 2);
  try {
    exact.merge(streaming);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("this is exact"), std::string::npos) << what;
    EXPECT_NE(what.find("other is streaming"), std::string::npos) << what;
  }
}

/// An exact accumulator's sample matrix as its document writes it.
std::vector<std::vector<double>> exact_rows(const RoundAccumulator& acc) {
  const util::json::Value doc = acc.to_json();
  std::vector<std::vector<double>> rows;
  for (const util::json::Value& row : doc.at("samples").as_array()) {
    rows.emplace_back();
    for (const util::json::Value& x : row.as_array())
      rows.back().push_back(x.as_number());
  }
  return rows;
}

TEST(RoundAccumulator, ExactMergePreservesInsertionOrder) {
  // The load-bearing exact-backend property: a merge appends the other
  // side's samples after this side's, round by round, so merging run
  // windows in window order rebuilds the serial matrix.
  RoundAccumulator a(AggBackend::Exact, 2), b(AggBackend::Exact, 2);
  a.record(0, 1.0);
  a.record(1, 2.0);
  b.record(0, 3.0);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(1), 1u);
  EXPECT_EQ(exact_rows(a),
            (std::vector<std::vector<double>>{{1.0, 3.0}, {2.0}}));
}

TEST(RoundAccumulator, MergeWithAsymmetricPerRoundCounts) {
  // Runs of different lengths: the left operand recorded rounds {0, 1},
  // the right only round 1 plus extra samples for round 2 the left never
  // saw. Merge must append per round without requiring equal counts.
  for (const AggBackend backend : {AggBackend::Exact, AggBackend::Streaming}) {
    RoundAccumulator a(backend, 3), b(backend, 3);
    a.record(0, 1.0);
    a.record(1, 2.0);
    b.record(1, 4.0);
    b.record(2, 8.0);
    b.record(2, 16.0);
    a.merge(b);
    EXPECT_EQ(a.count(0), 1u);
    EXPECT_EQ(a.count(1), 2u);
    EXPECT_EQ(a.count(2), 2u);
    // The merged state reduces normally; no round is empty here.
    const auto means = a.mean_series();
    EXPECT_DOUBLE_EQ(means[0], 1.0) << to_string(backend);
    EXPECT_DOUBLE_EQ(means[1], 3.0) << to_string(backend);
    EXPECT_DOUBLE_EQ(means[2], 12.0) << to_string(backend);
    if (backend == AggBackend::Exact) {
      EXPECT_EQ(exact_rows(a), (std::vector<std::vector<double>>{
                                   {1.0}, {2.0, 4.0}, {8.0, 16.0}}));
    }
  }
}

TEST(RoundAccumulator, EmptyRoundsReduceToNaNUnderBothBackends) {
  // The churn-emptied-cohort convention must hold identically for both
  // backends: quiet NaN, never a throw or a fabricated 0.0.
  for (const AggBackend backend : {AggBackend::Exact, AggBackend::Streaming}) {
    RoundAccumulator acc(backend, 3);
    acc.record(0, 5.0);
    acc.record(2, 7.0);
    EXPECT_TRUE(acc.empty_round(1));
    EXPECT_FALSE(acc.empty_round(0));
    for (const auto& series :
         {acc.trimmed_mean_series(0.2), acc.mean_series(),
          acc.percentile_series(50.0), acc.percentile_series(0.0),
          acc.percentile_series(100.0)}) {
      ASSERT_EQ(series.size(), 3u);
      EXPECT_EQ(series[0], 5.0) << to_string(backend);
      EXPECT_TRUE(std::isnan(series[1])) << to_string(backend);
      EXPECT_EQ(series[2], 7.0) << to_string(backend);
    }
  }
}

TEST(RoundAccumulator, StreamingExactWhileRunsFitTheReservoir) {
  // At or below the reservoir capacity, the streaming backend IS exact
  // (the paper's default 100-run sweeps under the default capacity 256).
  util::Rng rng(9);
  RoundAccumulator exact(AggBackend::Exact, 3);
  RoundAccumulator streaming(AggBackend::Streaming, 3);
  for (std::size_t run = 0; run < 100; ++run) {
    for (std::size_t r = 0; r < 3; ++r) {
      const double x = rng.uniform_real(0.0, 100.0);
      exact.record(r, x);
      streaming.record(r, x);
    }
  }
  EXPECT_EQ(streaming.trimmed_mean_series(0.2),
            exact.trimmed_mean_series(0.2));
  EXPECT_EQ(streaming.percentile_series(90.0), exact.percentile_series(90.0));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(streaming.mean_series()[r], exact.mean_series()[r], 1e-9);
    EXPECT_EQ(streaming.count(r), exact.count(r));
  }
}

TEST(RoundAccumulator, StreamingErrorBoundVsExactBeyondCapacity) {
  // The documented error bound: 20k samples/round vs capacity 256. The
  // trimmed mean / median come from the reservoir (rank SE ~
  // sqrt(p(1-p)/256) -> a few percent of sigma), on-grid percentiles
  // from P². Mean / min / max stay exact (RunningStats).
  util::Rng rng(17);
  RoundAccumulator exact(AggBackend::Exact, 2);
  RoundAccumulator streaming(AggBackend::Streaming, 2);
  for (std::size_t run = 0; run < 20'000; ++run) {
    for (std::size_t r = 0; r < 2; ++r) {
      const double x = rng.normal(100.0, 15.0);
      exact.record(r, x);
      streaming.record(r, x);
    }
  }
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_NEAR(streaming.mean_series()[r], exact.mean_series()[r], 1e-9);
    EXPECT_NEAR(streaming.trimmed_mean_series(0.2)[r],
                exact.trimmed_mean_series(0.2)[r], 4.0);  // ~0.25 sigma
    EXPECT_NEAR(streaming.percentile_series(50.0)[r],
                exact.percentile_series(50.0)[r], 2.0);  // P² grid
    EXPECT_NEAR(streaming.percentile_series(95.0)[r],
                exact.percentile_series(95.0)[r], 3.0);
    EXPECT_EQ(streaming.percentile_series(0.0)[r],
              exact.percentile_series(0.0)[r]);  // min: exact
    EXPECT_EQ(streaming.percentile_series(100.0)[r],
              exact.percentile_series(100.0)[r]);  // max: exact
  }
}

TEST(RoundAccumulator, StreamingMemoryIndependentOfRunCount) {
  RoundAccumulator small(AggBackend::Streaming, 5);
  RoundAccumulator large(AggBackend::Streaming, 5);
  RoundAccumulator exact_small(AggBackend::Exact, 5);
  RoundAccumulator exact_large(AggBackend::Exact, 5);
  util::Rng rng(23);
  for (std::size_t run = 0; run < 100; ++run)
    for (std::size_t r = 0; r < 5; ++r) {
      const double x = rng.uniform01();
      small.record(r, x);
      exact_small.record(r, x);
    }
  for (std::size_t run = 0; run < 50'000; ++run)
    for (std::size_t r = 0; r < 5; ++r) {
      const double x = rng.uniform01();
      large.record(r, x);
      exact_large.record(r, x);
    }
  // O(rounds): 500x the runs, identical streaming footprint.
  EXPECT_EQ(large.memory_bytes(), small.memory_bytes());
  // The exact matrix grows roughly linearly instead.
  EXPECT_GT(exact_large.memory_bytes(), exact_small.memory_bytes() * 100);
  // And at this scale streaming is far below exact.
  EXPECT_LT(large.memory_bytes() * 10, exact_large.memory_bytes());
}

TEST(RoundAccumulator, JsonRoundTripIsExactForBothBackends) {
  util::Rng rng(31);
  for (const AggBackend backend : {AggBackend::Exact, AggBackend::Streaming}) {
    RoundAccumulator acc(backend, 3);
    for (std::size_t run = 0; run < 700; ++run)
      for (std::size_t r = 0; r < 3; ++r)
        acc.record(r, rng.normal(0.0, 1.0));
    const RoundAccumulator restored = RoundAccumulator::from_json(
        util::json::parse(acc.to_json().dump()), 700);
    EXPECT_EQ(restored.backend(), backend);
    EXPECT_EQ(restored.rounds(), acc.rounds());
    // Every series reproduces bit for bit after the %.17g round-trip.
    EXPECT_EQ(restored.trimmed_mean_series(0.2),
              acc.trimmed_mean_series(0.2));
    EXPECT_EQ(restored.mean_series(), acc.mean_series());
    EXPECT_EQ(restored.percentile_series(50.0), acc.percentile_series(50.0));
    EXPECT_EQ(restored.percentile_series(33.0), acc.percentile_series(33.0));
  }
}

/// `object` with member `key` replaced by `v`, other members in order.
util::json::Value with_member(const util::json::Value& object,
                              std::string_view key, util::json::Value v) {
  util::json::Value out = util::json::Value::object();
  for (const auto& [k, member] : object.as_object())
    out.set(k, k == key ? v : member);
  return out;
}

/// The run count the documents below are read under: no round of theirs
/// counts more samples.
constexpr std::size_t kReadRuns = 300;

/// Expects from_json to refuse `doc`, naming the entry and `what`.
void expect_read_refused(const util::json::Value& doc,
                         const std::string& what) {
  try {
    RoundAccumulator::from_json(doc, kReadRuns,
                                "partial entry \"metrics.none\"");
    ADD_FAILURE() << what << " loaded";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("partial entry \"metrics.none\""),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

TEST(RoundAccumulator, StreamingSketchShapeIsCheckedOnRead) {
  // Capacity and grid are constants; every document still carries them,
  // and a read refuses one that differs, naming the entry, instead of
  // merging it into a partial of the real shape.
  RoundAccumulator acc(AggBackend::Streaming, 2);
  acc.record(0, 1.0);
  const util::json::Value doc = acc.to_json();
  EXPECT_EQ(doc.at("reservoir_capacity").as_size(),
            RoundAccumulator::kReservoirCapacity);
  expect_read_refused(
      with_member(doc, "reservoir_capacity", util::json::Value(128)),
      "reservoir capacity 128");
  util::json::Value grid = util::json::Value::array();
  for (const double q : {5.0, 25.0, 50.0, 75.0, 99.0}) grid.push_back(q);
  expect_read_refused(with_member(doc, "p2_grid", grid),
                      "P2 grid [5,25,50,75,99]");
}

TEST(RoundAccumulator, StreamingSeenMustMatchCount) {
  // The round's count (n) and the reservoir's seen count both take every
  // recorded sample, and a merge adds the other side's count to each. A
  // document where they differ, or whose draw count no history reaches,
  // is refused naming the entry and the round.
  RoundAccumulator acc(AggBackend::Streaming, 2);
  for (std::size_t run = 0; run < 300; ++run) acc.record(1, 0.5 * run);
  const util::json::Value doc = acc.to_json();
  const auto with_round1 = [&](std::string_view key, util::json::Value v) {
    const auto& rounds = doc.at("round_stats").as_array();
    util::json::Value stats = util::json::Value::array();
    stats.push_back(rounds[0]);
    stats.push_back(with_member(rounds[1], key, std::move(v)));
    return with_member(doc, "round_stats", std::move(stats));
  };
  EXPECT_NO_THROW(
      RoundAccumulator::from_json(with_round1("seen", 300), kReadRuns));
  expect_read_refused(with_round1("seen", 301),
                      "round 1: precondition failed");
  expect_read_refused(with_round1("seen", 301), "has seen 301 samples");
  expect_read_refused(with_round1("rng_draws", 90'000'000'000.0),
                      "round 1: precondition failed");
}

TEST(RoundAccumulator, ShardedMergeEqualsSingleFeed) {
  // Exact backend: two half-range partials merged == one full feed, bit
  // for bit. Streaming: mean/min/max exact, quantiles within the bound.
  util::Rng rng(41);
  std::vector<double> stream;
  for (std::size_t i = 0; i < 6'000; ++i) stream.push_back(rng.normal(10, 2));

  for (const AggBackend backend : {AggBackend::Exact, AggBackend::Streaming}) {
    RoundAccumulator whole(backend, 2), left(backend, 2), right(backend, 2);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t r = i % 2;
      whole.record(r, stream[i]);
      (i < stream.size() / 2 ? left : right).record(r, stream[i]);
    }
    left.merge(right);
    for (std::size_t r = 0; r < 2; ++r)
      EXPECT_EQ(left.count(r), whole.count(r));
    if (backend == AggBackend::Exact) {
      EXPECT_EQ(left.trimmed_mean_series(0.2),
                whole.trimmed_mean_series(0.2));
      EXPECT_EQ(left.percentile_series(25.0), whole.percentile_series(25.0));
      EXPECT_EQ(left.mean_series(), whole.mean_series());
    } else {
      for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_NEAR(left.mean_series()[r], whole.mean_series()[r], 1e-9);
        EXPECT_EQ(left.percentile_series(0.0)[r],
                  whole.percentile_series(0.0)[r]);
        EXPECT_NEAR(left.trimmed_mean_series(0.2)[r],
                    whole.trimmed_mean_series(0.2)[r], 0.5);
        EXPECT_NEAR(left.percentile_series(50.0)[r],
                    whole.percentile_series(50.0)[r], 0.5);
      }
    }
  }
}

TEST(RoundAccumulator, JsonPastReservoirCapacityIsPinned) {
  // 600 samples a round, past the reservoir capacity (256): the streaming
  // document holds reservoir replacements (rng_draws > 0) and moved P²
  // markers, and the merge of two 300-sample halves draws in the
  // reservoir merge and clears p2_live. The two-run goldens reach none
  // of these.
  util::Rng rng(29);
  RoundAccumulator exact(AggBackend::Exact, 3);
  RoundAccumulator streaming(AggBackend::Streaming, 3);
  RoundAccumulator left(AggBackend::Streaming, 3);
  RoundAccumulator right(AggBackend::Streaming, 3);
  for (std::size_t run = 0; run < 600; ++run) {
    for (std::size_t r = 0; r < 3; ++r) {
      const double x = rng.normal(50.0, 20.0);
      exact.record(r, x);
      streaming.record(r, x);
      (run < 300 ? left : right).record(r, x);
    }
  }
  left.merge(right);
  const util::json::Value merged = left.to_json();
  const util::json::Value& round0 = merged.at("round_stats").as_array()[0];
  EXPECT_GT(round0.at("rng_draws").as_size(), 0u);
  EXPECT_FALSE(round0.at("p2_live").as_bool());

  const auto digest = [](const RoundAccumulator& acc) {
    return crypto::Hash256(crypto::sha256(acc.to_json().dump())).to_hex();
  };
  EXPECT_EQ(digest(exact),
            "92d8833f7a2ece5a1202d392d2ebb52a1eda4d048ce4212bbf4d93d44b4e80f2");
  EXPECT_EQ(digest(streaming),
            "9ffe69bcfa387734303a8115cb88d27cc4adca67a67c91dd212844551636c992");
  EXPECT_EQ(digest(left),
            "60b9b00460c1ebea4d4525fe5059a6b6cd7ab726694d98e0c7d6e7d06d5f195c");
}

// ---------------------------------------------------------------------
// The sharded defection experiment (the merge_partials workflow,
// in-process).

DefectionExperimentConfig shard_test_config(AggBackend agg) {
  DefectionExperimentConfig config;
  config.network.node_count = 60;
  config.network.seed = 4242;
  config.network.defection_rate = 0.15;
  config.runs = 6;
  config.rounds = 3;
  config.agg = agg;
  return config;
}

void expect_series_equal(const DefectionSeries& a, const DefectionSeries& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].final_pct, b.rounds[r].final_pct) << "round " << r;
    EXPECT_EQ(a.rounds[r].tentative_pct, b.rounds[r].tentative_pct);
    EXPECT_EQ(a.rounds[r].none_pct, b.rounds[r].none_pct);
  }
  EXPECT_EQ(a.runs_with_progress, b.runs_with_progress);
  EXPECT_EQ(a.live_series, b.live_series);
  EXPECT_EQ(a.cooperation_series, b.cooperation_series);
  EXPECT_EQ(a.min_live, b.min_live);
  EXPECT_EQ(a.max_live, b.max_live);
}

TEST(DefectionSharding, ExactMergeBitIdenticalToSingleProcess) {
  // The acceptance criterion: N shards + merge == one threads=N run,
  // including a JSON round-trip of every partial (the on-disk workflow).
  DefectionExperimentConfig whole_config = shard_test_config(AggBackend::Exact);
  whole_config.threads = 3;  // parallel single-process baseline
  const DefectionSeries whole = run_defection_experiment(whole_config);

  std::vector<DefectionPartial> partials;
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 2}, {2, 4}, {4, 6}}) {
    DefectionExperimentConfig config = shard_test_config(AggBackend::Exact);
    config.shard = RunShard{begin, end};
    // Round-trip through the interchange format, as merge_partials does.
    partials.push_back(DefectionPartial::from_json(util::json::parse(
        run_defection_partial(config).to_json().dump())));
  }
  DefectionPartial merged = std::move(partials[0]);
  merged.merge(partials[1]);
  merged.merge(partials[2]);
  EXPECT_EQ(merged.run_begin(), 0u);
  EXPECT_EQ(merged.run_end(), 6u);
  expect_series_equal(merged.finalize(0.2), whole);
}

TEST(DefectionSharding, MergeRejectsGapsAndWrongExperiments) {
  DefectionExperimentConfig config = shard_test_config(AggBackend::Exact);
  config.shard = RunShard{0, 2};
  DefectionPartial first = run_defection_partial(config);
  config.shard = RunShard{4, 6};  // leaves a hole at [2, 4)
  const DefectionPartial gapped = run_defection_partial(config);
  try {
    first.merge(gapped);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ends at run 2"), std::string::npos) << what;
    EXPECT_NE(what.find("begins at run 4"), std::string::npos) << what;
  }

  config = shard_test_config(AggBackend::Exact);
  config.runs = 8;  // different experiment shape
  config.shard = RunShard{2, 4};
  const DefectionPartial alien = run_defection_partial(config);
  EXPECT_THROW(first.merge(alien), std::invalid_argument);
}

TEST(DefectionSharding, StreamingShardsWithinToleranceOfExact) {
  // Streaming shard merges are not bit-identical, but must stay within
  // the documented bound of the exact series (here runs << capacity, so
  // the reservoirs concatenate exactly and only the P² fallback and
  // Chan-mean differ).
  const DefectionSeries exact =
      run_defection_experiment(shard_test_config(AggBackend::Exact));

  DefectionExperimentConfig config = shard_test_config(AggBackend::Streaming);
  config.shard = RunShard{0, 3};
  DefectionPartial merged = run_defection_partial(config);
  config.shard = RunShard{3, 6};
  merged.merge(run_defection_partial(config));
  const DefectionSeries streamed = merged.finalize(0.2);

  ASSERT_EQ(streamed.rounds.size(), exact.rounds.size());
  for (std::size_t r = 0; r < exact.rounds.size(); ++r) {
    EXPECT_NEAR(streamed.rounds[r].final_pct, exact.rounds[r].final_pct, 1e-9);
    EXPECT_NEAR(streamed.rounds[r].none_pct, exact.rounds[r].none_pct, 1e-9);
  }
  EXPECT_EQ(streamed.runs_with_progress, exact.runs_with_progress);
  EXPECT_EQ(streamed.min_live, exact.min_live);
  EXPECT_EQ(streamed.max_live, exact.max_live);
  for (std::size_t r = 0; r < exact.live_series.size(); ++r) {
    EXPECT_NEAR(streamed.live_series[r], exact.live_series[r], 1e-9);
    EXPECT_NEAR(streamed.cooperation_series[r], exact.cooperation_series[r],
                1e-9);
  }
}

TEST(DefectionSharding, StreamingMemoryBelowExactAtScale) {
  // Same experiment, both backends: the streaming accumulator footprint
  // must undercut the exact matrix once runs grow, and must not grow
  // with the run count (spot-checked at two run counts).
  DefectionExperimentConfig config = shard_test_config(AggBackend::Streaming);
  config.network.node_count = 30;
  config.runs = 400;  // > default reservoir capacity 256
  const std::size_t streaming_bytes =
      run_defection_partial(config).accumulator_bytes();
  config.agg = AggBackend::Exact;
  const std::size_t exact_bytes =
      run_defection_partial(config).accumulator_bytes();
  EXPECT_LT(streaming_bytes, exact_bytes);

  config.agg = AggBackend::Streaming;
  config.runs = 800;
  EXPECT_EQ(run_defection_partial(config).accumulator_bytes(),
            streaming_bytes);
}

// ---------------------------------------------------------------------
// Streaming-vs-exact agreement across every scenario policy (satellite).

TEST(DefectionSharding, StreamingAgreesWithExactAcrossScenarioPolicies) {
  struct PolicyCase {
    const char* name;
    PolicyKind kind;
    bool churn;
  };
  const PolicyCase cases[] = {
      {"scripted", PolicyKind::Scripted, false},
      {"adaptive", PolicyKind::AdaptiveDefect, false},
      {"stake", PolicyKind::StakeCorrelatedDefect, false},
      {"churn", PolicyKind::Scripted, true},
  };
  for (const PolicyCase& c : cases) {
    DefectionExperimentConfig config;
    config.network.node_count = 40;
    config.network.seed = 777;
    config.network.defection_rate = 0.2;
    config.runs = 4;
    config.rounds = 3;
    config.policy.kind = c.kind;
    if (c.kind == PolicyKind::StakeCorrelatedDefect) {
      config.policy.defect_at_bottom = 0.4;
      config.policy.defect_at_top = 0.0;
    }
    if (c.churn) {
      config.policy.churn.leave_probability = 0.1;
      config.policy.churn.join_probability = 0.15;
      config.policy.churn.min_live = 10;
    }
    config.agg = AggBackend::Exact;
    const DefectionSeries exact = run_defection_experiment(config);
    config.agg = AggBackend::Streaming;
    const DefectionSeries streamed = run_defection_experiment(config);
    // 4 runs fit any reservoir: identical trimmed means, near-identical
    // means (Welford vs sum-divide).
    ASSERT_EQ(streamed.rounds.size(), exact.rounds.size()) << c.name;
    for (std::size_t r = 0; r < exact.rounds.size(); ++r) {
      EXPECT_EQ(streamed.rounds[r].final_pct, exact.rounds[r].final_pct)
          << c.name << " round " << r;
      EXPECT_EQ(streamed.rounds[r].tentative_pct,
                exact.rounds[r].tentative_pct) << c.name;
      EXPECT_EQ(streamed.rounds[r].none_pct, exact.rounds[r].none_pct)
          << c.name;
    }
    for (std::size_t r = 0; r < exact.live_series.size(); ++r) {
      EXPECT_NEAR(streamed.live_series[r], exact.live_series[r], 1e-9)
          << c.name;
      EXPECT_NEAR(streamed.cooperation_series[r],
                  exact.cooperation_series[r], 1e-9) << c.name;
    }
    EXPECT_EQ(streamed.runs_with_progress, exact.runs_with_progress)
        << c.name;
    EXPECT_EQ(streamed.min_live, exact.min_live) << c.name;
    EXPECT_EQ(streamed.max_live, exact.max_live) << c.name;
  }
}

}  // namespace
}  // namespace roleshare::sim
