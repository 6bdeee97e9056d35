// The Fig-6 / Fig-7 economic experiment (§V-B): a population of hundreds of
// thousands of accounts with a configurable stake distribution, per-round
// committee sampling (sub-user draws, exactly Algorand's committee-stake
// accounting where S_L = tau_proposer and S_M = 3*tau_step + tau_final),
// per-round transaction churn among stake-weighted parties, and per-round
// computation of the minimal incentive-compatible reward B_i via
// Algorithm 1 — compared against the Foundation's Table-III schedule.
//
// Sharded execution rides the shared sim::ExperimentPartial envelope
// (sim/partial.hpp): run_reward_partial executes the config's shard
// window into a mergeable RewardPartial, and finalize() of a whole-range
// partial is the single-process result — so N exact-backend shards merged
// in window order reproduce it bit for bit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "econ/optimizer.hpp"
#include "sim/aggregators.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/partial.hpp"
#include "util/distributions.hpp"

namespace roleshare::sim {

struct RewardExperimentConfig {
  std::size_t node_count = 100'000;
  /// Root seed; run k draws from the independent stream root.split(k).
  std::uint64_t seed = 7;
  /// The paper's U(1,200), N(100,20), N(100,10) or N(2000,25).
  util::StakeDistribution stakes = util::StakeDistribution::uniform(1, 200);
  std::size_t runs = 200;
  std::size_t rounds_per_run = 10;
  /// Worker threads for the run fan-out (0 = all hardware threads).
  /// Aggregates are bit-identical for every thread count.
  std::size_t threads = 1;
  /// Worker threads for each run's per-node scans (the O(node_count)
  /// role-partition pass each round); 0 = all hardware threads. Forced
  /// serial while the run fan-out is parallel. The per-chunk partials are
  /// integer sums and minima, so the merged result is exact and identical
  /// for every inner thread count.
  std::size_t inner_threads = 1;
  econ::CostModel costs{};
  econ::OptimizerConfig optimizer{};
  /// Committee-stake expectations (paper: S_L = 26, S_M = 13,000).
  std::uint64_t leader_stake = 26;
  std::uint64_t committee_stake = 13'000;
  /// Per-round transaction churn: `tx_parties` stake-weighted draws, each
  /// moving U(tx_lo, tx_hi) Algos (negative = send, positive = receive).
  std::size_t tx_parties = 1000;
  std::int64_t tx_lo = -4;
  std::int64_t tx_hi = 4;
  /// Fig-7(c): Other nodes with stake < w are excluded from the reward set.
  std::optional<std::int64_t> min_other_stake;
  /// Reduction backend for the per-round B_i series and the run-scalar
  /// banks. Exact is the bit-identical baseline; Streaming keeps the
  /// series state at O(rounds) memory. (The raw `bi_algos` sample list is
  /// only materialized under Exact — the Fig-6 histogram input; Streaming
  /// leaves it empty, which is the point.)
  AggBackend agg = AggBackend::Exact;
  /// Run window THIS process executes (default: all runs); all result
  /// means are over the executed window.
  RunShard shard{};
};

struct RewardExperimentResult {
  /// Every computed per-round B_i (runs x rounds values), in Algos.
  /// Materialized only under the Exact backend (see config.agg).
  std::vector<double> bi_algos;
  /// Per-round means across runs (length rounds_per_run), Algos.
  std::vector<double> bi_per_round_mean;
  /// Per-round Foundation schedule rewards for the same rounds, Algos.
  std::vector<double> foundation_per_round;
  double mean_bi = 0.0;    // overall mean, Algos
  double mean_total_stake = 0.0;  // mean S_N across runs, Algos
  std::size_t infeasible_rounds = 0;
  /// Chosen splits observed (mean alpha/beta across rounds).
  double mean_alpha = 0.0;
  double mean_beta = 0.0;
  /// Bytes held by the per-round reduction accumulator plus the raw
  /// sample list — the exact-vs-streaming memory story.
  std::size_t accumulator_bytes = 0;
};

/// The experiment-specific half of a RewardPartial: the per-round B_i
/// accumulator plus the flat banks of feasible-round samples and per-run
/// scalars, all in record order so exact-backend merges replay a serial
/// execution exactly.
class RewardPayload {
 public:
  static constexpr std::string_view kKind = "reward";

  RewardPayload(std::size_t rounds, AggBackend backend);

  /// One feasible round's optimizer outcome, in round order within the
  /// run: the B_i sample and the chosen split.
  void record_feasible(double bi_algos, double alpha, double beta);
  /// The per-round B_i series entry (0 for infeasible rounds, matching
  /// the historical Fig-7 semantics).
  void record_round_bi(std::size_t round_index, double bi_algos);
  /// One run's trailing scalars.
  void record_run(double total_stake, std::size_t infeasible_rounds);

  void merge(const RewardPayload& next);

  RewardExperimentResult finalize(const PartialEnvelope& envelope) const;

  std::size_t accumulator_bytes() const { return state_.memory_bytes(); }

  util::json::Value to_json() const;
  static RewardPayload from_json(const util::json::Value& value,
                                 const PartialEnvelope& envelope);

 private:
  explicit RewardPayload(ReductionState state) : state_(std::move(state)) {}

  ReductionState state_;  // per_round | bi, alpha, beta, stake
  std::size_t infeasible_ = 0;
};

using RewardPartial = ExperimentPartial<RewardPayload>;

/// Canonical echo of every result-affecting config field — the spec-hash
/// input shared by all partials of one reward experiment.
util::json::Value reward_spec_echo(const RewardExperimentConfig& config);

/// Executes config.shard's run window and reduces it into a mergeable
/// partial. Deterministic in config.seed, independent of thread knobs.
RewardPartial run_reward_partial(const RewardExperimentConfig& config);

}  // namespace roleshare::sim
