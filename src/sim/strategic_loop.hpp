// Strategic loop — the paper's headline claim, closed end to end:
// "our reward sharing approach ... can guarantee cooperation within a group
// of selfish Algorand users" (§I), where the Foundation's cannot.
//
// Every node is rational. Each round t:
//   1. the consensus protocol runs with the current strategy profile;
//   2. rewards are paid by the configured scheme (Foundation
//      stake-proportional at the Table-III R_i, or role-based with the
//      Algorithm-1 minimal B_i);
//   3. each node updates its strategy to the best response in the
//      one-round game induced by round t's true roles, scheme and reward —
//      myopic best-response dynamics across rounds.
//
// Expected outcomes (verified by tests and the incentive_loop example):
// under the Foundation scheme cooperation unravels (Theorem 2) and the
// defectors' silence degrades consensus (Fig 3); under the role-based
// scheme the cooperative profile is self-enforcing (Theorem 3) and the
// network keeps finalizing blocks — while paying far less.
#pragma once

#include <vector>

#include "game/game_model.hpp"
#include "sim/aggregators.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/partial.hpp"
#include "sim/round_engine.hpp"
#include "sim/scenario_policy.hpp"

namespace roleshare::sim {

struct StrategicLoopConfig {
  NetworkConfig network;
  std::size_t rounds = 20;
  /// StakeProportional: the Foundation's Table-III R_i. RoleBased: the
  /// Algorithm-1 minimal B_i with the adaptive split.
  econ::SchemeKind scheme = econ::SchemeKind::StakeProportional;
  /// Strategy profile nodes start from (default: everyone cooperates).
  game::Strategy initial = game::Strategy::Cooperate;
  /// Optional churn schedule: nodes leave/join between rounds on
  /// deterministic per-(round, node) streams (scenario_policy.hpp).
  /// Departed nodes play Offline; rejoining nodes restart from `initial`.
  ChurnSchedule churn{};
};

struct StrategicRoundStats {
  ledger::Round round = 0;
  double cooperation_fraction = 0.0;  // share of live nodes playing C
  double final_fraction = 0.0;        // share extracting a final block
  double bi_algos = 0.0;              // reward paid this round
  bool non_empty_block = false;
  std::size_t live = 0;               // live-node count (churn)
};

struct StrategicLoopResult {
  std::vector<StrategicRoundStats> rounds;
  double total_reward_algos = 0.0;
  /// Cooperation share in the last round — the loop's fixpoint indicator.
  double final_cooperation = 0.0;
};

/// One strategic loop. Its within-run parallelism runs on the caller's
/// `inner_pool` (nullptr = serial), which serves both per-round workloads:
/// the round engine's per-node loops (sortition, gossip, tallies) and the
/// best-response sweep over the population. Neither changes results for
/// any pool size. The ensemble passes the run's RunContext pool.
StrategicLoopResult run_strategic_loop(const StrategicLoopConfig& config,
                                       util::ThreadPool* inner_pool);

/// Monte-Carlo ensemble of independent strategic loops on the shared
/// run_experiment engine — the runs×rounds view of the paper's headline
/// claim (population iterations fan out across the thread pool; run k
/// uses the stream root.split(k) where root is base.network.seed).
struct StrategicEnsembleConfig {
  /// Template for every run; its network.seed is the ensemble root seed.
  StrategicLoopConfig base;
  std::size_t runs = 8;
  /// Worker threads for the run fan-out (0 = all hardware threads).
  /// Aggregates are bit-identical for every thread count.
  std::size_t threads = 1;
  /// Worker threads for each run's inner per-node loops (0 = all hardware
  /// threads); forced serial while the run fan-out is parallel.
  std::size_t inner_threads = 1;
  /// Reduction backend for the three per-round series (exact = the bit-
  /// identical sum/divide baseline; streaming = O(rounds) memory).
  AggBackend agg = AggBackend::Exact;
  /// Run window THIS process executes (default: all runs); all result
  /// means are over the executed window.
  RunShard shard{};
};

struct StrategicEnsembleResult {
  /// Per-round means across runs.
  std::vector<double> cooperation_series;  // fraction playing C
  std::vector<double> final_series;        // fraction extracting final
  std::vector<double> reward_series;       // Algos paid
  double mean_total_reward_algos = 0.0;
  double mean_final_cooperation = 0.0;
  /// Bytes held by the three per-round reduction accumulators.
  std::size_t accumulator_bytes = 0;
};

/// The experiment-specific half of a StrategicPartial: the three
/// per-round series accumulators plus the per-run scalar banks (total
/// reward paid, final cooperation), kept in run order so exact-backend
/// merges replay a serial execution bit for bit.
class StrategicPayload {
 public:
  static constexpr std::string_view kKind = "strategic";

  StrategicPayload(std::size_t rounds, AggBackend backend);

  void record_round(std::size_t round_index, double cooperation_fraction,
                    double final_fraction, double reward_algos);
  void record_run(double total_reward_algos, double final_cooperation);

  void merge(const StrategicPayload& next) { state_.merge(next.state_); }

  StrategicEnsembleResult finalize(const PartialEnvelope& envelope) const;

  std::size_t accumulator_bytes() const { return state_.memory_bytes(); }

  util::json::Value to_json() const { return state_.to_json(); }
  static StrategicPayload from_json(const util::json::Value& value,
                                    const PartialEnvelope& envelope);

 private:
  explicit StrategicPayload(ReductionState state)
      : state_(std::move(state)) {}

  ReductionState state_;  // coop, final, reward | total_reward, final_coop
};

using StrategicPartial = ExperimentPartial<StrategicPayload>;

/// Canonical echo of every result-affecting ensemble config field — the
/// spec-hash input shared by all partials of one strategic ensemble.
util::json::Value strategic_spec_echo(const StrategicEnsembleConfig& config);

/// Executes config.shard's run window and reduces it into a mergeable
/// partial. Deterministic in config.base.network.seed, independent of
/// the thread knobs.
StrategicPartial run_strategic_partial(const StrategicEnsembleConfig& config);

/// run_strategic_partial + finalize — the single-process ensemble,
/// bit-identical under the exact backend.
StrategicEnsembleResult run_strategic_ensemble(
    const StrategicEnsembleConfig& config);

}  // namespace roleshare::sim
