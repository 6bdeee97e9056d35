// Property suite: the mergeable accumulator / shard-partial layer under
// randomized sample matrices and shard tilings (DESIGN.md §8).
//
// The sharding workflow's core promise: executing a run range in one
// process and executing it as contiguous shards merged in order are the
// SAME computation — byte-identical JSON for the exact backend, within
// documented tolerance for the streaming backend. These properties check
// that promise at the accumulator level for thousands of random
// (matrix, tiling) pairs, and end-to-end through run_defection_partial
// for a smaller number of real experiment executions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gen/domain_gen.hpp"
#include "sim/aggregators.hpp"
#include "sim/defection_experiment.hpp"
#include "util/json.hpp"
#include "util/proptest.hpp"

namespace {

using roleshare::sim::AggBackend;
using roleshare::sim::RoundAccumulator;
using roleshare::util::proptest::Verdict;
namespace pgen = roleshare::util::proptest::gen;

// A randomized experiment surrogate: samples[run][round] holds 0..3
// values. Cheap enough for thousands of cases, rich enough to hit
// empty rounds, uneven counts and negative/fractional values.
using SampleMatrix = std::vector<std::vector<std::vector<double>>>;
using Tiling = std::vector<std::pair<std::size_t, std::size_t>>;

roleshare::util::proptest::Gen<SampleMatrix> sample_matrix(
    std::size_t runs, std::size_t rounds) {
  auto cell = pgen::vector_of(pgen::real_range(-100.0, 100.0), 0, 3);
  auto run = pgen::vector_of(std::move(cell), rounds, rounds);
  return pgen::vector_of(std::move(run), runs, runs);
}

void record_runs(RoundAccumulator& acc, const SampleMatrix& samples,
                 std::size_t run_begin, std::size_t run_end) {
  for (std::size_t r = run_begin; r < run_end; ++r)
    for (std::size_t round = 0; round < samples[r].size(); ++round)
      for (const double v : samples[r][round]) acc.record(round, v);
}

std::string describe_case(const SampleMatrix& samples, const Tiling& tiling) {
  std::string out = "tiling=[";
  for (std::size_t i = 0; i < tiling.size(); ++i) {
    if (i > 0) out += ",";
    out += "(" + std::to_string(tiling[i].first) + "," +
           std::to_string(tiling[i].second) + ")";
  }
  out += "] samples=[";
  for (std::size_t r = 0; r < samples.size(); ++r) {
    if (r > 0) out += "; ";
    out += "run" + std::to_string(r) + ":";
    for (std::size_t round = 0; round < samples[r].size(); ++round)
      out += std::to_string(samples[r][round].size());
  }
  return out + "]";
}

constexpr std::size_t kRuns = 6;
constexpr std::size_t kRounds = 4;

auto matrix_and_tiling() {
  return pgen::tuple_of(sample_matrix(kRuns, kRounds),
                        roleshare::testgen::shard_tiling(kRuns));
}

}  // namespace

// ISSUE acceptance: random shard-split == single-process, >= 1000 cases.
// Exact backend: byte-identical serialized state and series.
PROP_TEST_WITH_PARAMS(PropPartials, ExactShardSplitIsByteIdentical, 1000) {
  prop.check(
      matrix_and_tiling(),
      [](const std::tuple<SampleMatrix, Tiling>& t) {
        const auto& [samples, tiling] = t;
        RoundAccumulator whole(AggBackend::Exact, kRounds);
        record_runs(whole, samples, 0, kRuns);

        RoundAccumulator merged(AggBackend::Exact, kRounds);
        for (const auto& [begin, end] : tiling) {
          RoundAccumulator shard(AggBackend::Exact, kRounds);
          record_runs(shard, samples, begin, end);
          merged.merge(shard);
        }

        const std::string a = whole.to_json().dump();
        const std::string b = merged.to_json().dump();
        if (a != b)
          return Verdict{false,
                         "serialized state diverged:\n  whole:  " + a +
                             "\n  merged: " + b};
        return Verdict{};
      },
      [](const std::tuple<SampleMatrix, Tiling>& t) {
        return describe_case(std::get<0>(t), std::get<1>(t));
      });
}

// Merging contiguous shards is associative: ((A+B)+C) == (A+(B+C)),
// byte-identical under the exact backend.
PROP_TEST_WITH_PARAMS(PropPartials, ExactMergeIsAssociative, 1000) {
  prop.check(
      pgen::tuple_of(sample_matrix(kRuns, kRounds),
                     pgen::size_range(1, kRuns - 1),
                     pgen::size_range(1, kRuns - 1)),
      [](const std::tuple<SampleMatrix, std::size_t, std::size_t>& t) {
        const auto& [samples, cut_a, cut_b] = t;
        const std::size_t c1 = std::min(cut_a, cut_b);
        const std::size_t c2 = std::max(cut_a, cut_b);
        // Windows [0,c1), [c1,c2), [c2,kRuns) — middle may be empty.
        const auto shard = [&](std::size_t begin, std::size_t end) {
          RoundAccumulator acc(AggBackend::Exact, kRounds);
          record_runs(acc, samples, begin, end);
          return acc;
        };
        RoundAccumulator left = shard(0, c1);
        left.merge(shard(c1, c2));
        left.merge(shard(c2, kRuns));

        RoundAccumulator mid = shard(c1, c2);
        mid.merge(shard(c2, kRuns));
        RoundAccumulator right = shard(0, c1);
        right.merge(mid);

        return left.to_json().dump() == right.to_json().dump();
      });
}

// The streaming backend must agree with exact on the Welford-carried
// statistics (per-round means) for any shard split — merging is allowed
// to reorder floating-point reductions, so the comparison is tolerance-
// based, not bitwise.
PROP_TEST_WITH_PARAMS(PropPartials, StreamingShardMeansMatchExact, 1000) {
  prop.check(
      matrix_and_tiling(),
      [](const std::tuple<SampleMatrix, Tiling>& t) {
        const auto& [samples, tiling] = t;
        RoundAccumulator exact(AggBackend::Exact, kRounds);
        record_runs(exact, samples, 0, kRuns);

        RoundAccumulator merged(AggBackend::Streaming, kRounds);
        for (const auto& [begin, end] : tiling) {
          RoundAccumulator shard(AggBackend::Streaming, kRounds);
          record_runs(shard, samples, begin, end);
          merged.merge(shard);
        }

        const std::vector<double> want = exact.mean_series();
        const std::vector<double> got = merged.mean_series();
        if (want.size() != got.size())
          return Verdict{false, "series length mismatch"};
        for (std::size_t i = 0; i < want.size(); ++i) {
          if (std::isnan(want[i]) != std::isnan(got[i]))
            return Verdict{false,
                           "round " + std::to_string(i) +
                               ": NaN disagreement (exact " +
                               std::to_string(want[i]) + ", streaming " +
                               std::to_string(got[i]) + ")"};
          if (!std::isnan(want[i]) && std::abs(want[i] - got[i]) > 1e-9)
            return Verdict{false, "round " + std::to_string(i) + ": " +
                                      std::to_string(want[i]) + " vs " +
                                      std::to_string(got[i])};
        }
        return Verdict{};
      },
      [](const std::tuple<SampleMatrix, Tiling>& t) {
        return describe_case(std::get<0>(t), std::get<1>(t));
      });
}

// Empty-round semantics: rounds nobody recorded into reduce to NaN in
// every series, on both backends, whatever else the matrix holds.
PROP_TEST_WITH_PARAMS(PropPartials, EmptyRoundsReduceToNaN, 500) {
  prop.check(
      pgen::tuple_of(sample_matrix(kRuns, kRounds),
                     pgen::size_range(0, kRounds - 1),
                     pgen::boolean()),
      [](const std::tuple<SampleMatrix, std::size_t, bool>& t) {
        auto [samples, hole, streaming] = t;
        for (auto& run : samples) run[hole].clear();
        RoundAccumulator acc(
            streaming ? AggBackend::Streaming : AggBackend::Exact, kRounds);
        record_runs(acc, samples, 0, kRuns);
        if (!acc.empty_round(hole))
          return Verdict{false, "cleared round not reported empty"};
        if (!std::isnan(acc.mean_series()[hole]))
          return Verdict{false, "mean of an empty round is not NaN"};
        if (!std::isnan(acc.trimmed_mean_series(0.2)[hole]))
          return Verdict{false, "trimmed mean of an empty round is not NaN"};
        if (!std::isnan(acc.percentile_series(50.0)[hole]))
          return Verdict{false, "median of an empty round is not NaN"};
        return Verdict{};
      });
}

// Serialization is lossless for both backends: accumulator -> JSON ->
// text -> JSON -> accumulator -> JSON is byte-stable.
PROP_TEST_WITH_PARAMS(PropPartials, AccumulatorJsonRoundTrips, 500) {
  prop.check(
      pgen::tuple_of(sample_matrix(kRuns, kRounds), pgen::boolean()),
      [](const std::tuple<SampleMatrix, bool>& t) {
        const auto& [samples, streaming] = t;
        RoundAccumulator acc(
            streaming ? AggBackend::Streaming : AggBackend::Exact, kRounds);
        record_runs(acc, samples, 0, kRuns);
        const std::string text = acc.to_json().dump();
        const RoundAccumulator back =
            RoundAccumulator::from_json(roleshare::util::json::parse(text));
        if (back.backend() != acc.backend())
          return Verdict{false, "backend changed across round-trip"};
        const std::string again = back.to_json().dump();
        if (again != text)
          return Verdict{false, "serialization not a fixpoint:\n  " + text +
                                    "\n  " + again};
        return Verdict{};
      });
}

// End-to-end: a real Fig-3 experiment executed as a random contiguous
// tiling of run shards, merged in order, is byte-identical (exact
// backend) to the single-process execution. Much heavier than the
// accumulator-level properties, so the default count stays small; the
// nightly ROLESHARE_PROP_SCALE sweep multiplies it.
PROP_TEST_WITH_PARAMS(PropPartials, DefectionExperimentShardsMergeExactly, 5) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::shard_tiling(4),
                     pgen::int_range(1, 1'000'000),      // network seed
                     pgen::real_range(0.0, 0.3)),        // defection rate
      [](const std::tuple<Tiling, std::int64_t, double>& t) {
        const auto& [tiling, seed, rate] = t;
        roleshare::sim::DefectionExperimentConfig config;
        config.network.node_count = 40;
        config.network.seed = static_cast<std::uint64_t>(seed);
        config.network.defection_rate = rate;
        config.runs = 4;
        config.rounds = 2;
        config.agg = AggBackend::Exact;

        auto whole = config;
        whole.shard = roleshare::sim::RunShard{0, config.runs};
        const auto single = roleshare::sim::run_defection_partial(whole);

        auto shard_config = config;
        shard_config.shard =
            roleshare::sim::RunShard{tiling[0].first, tiling[0].second};
        auto merged = roleshare::sim::run_defection_partial(shard_config);
        for (std::size_t i = 1; i < tiling.size(); ++i) {
          shard_config.shard =
              roleshare::sim::RunShard{tiling[i].first, tiling[i].second};
          merged.merge(roleshare::sim::run_defection_partial(shard_config));
        }

        const std::string a = single.to_json().dump();
        const std::string b = merged.to_json().dump();
        if (a != b)
          return Verdict{false, "sharded execution diverged from "
                                "single-process (exact backend)"};
        return Verdict{};
      });
}
