// The Fig-3 experiment: how the share of nodes extracting final /
// tentative / no blocks evolves per round as a fraction of the network
// defects. Multiple independent runs, trimmed-mean aggregation.
//
// PR 3 generalized it into the scenario engine: a ScenarioPolicyConfig
// slots a behaviour-policy layer (adaptive best-response defection,
// stake-correlated defection, churn) in front of every round, with the
// default (scripted, no churn) bit-identical to the original Fig-3
// semantics.
//
// PR 4 split execution from aggregation behind a mergeable partial; this
// partial now rides the shared sim::ExperimentPartial envelope
// (sim/partial.hpp), so the defection family shares its shard /
// checkpoint / resume machinery with the reward and strategic families:
//
//   run_defection_partial  executes the config's shard window and returns
//                          a DefectionPartial — the mergeable, JSON-
//                          serializable reduction state of those runs.
//   DefectionPartial::merge folds the next contiguous shard in run-index
//                          order (envelope-checked: kind, spec hash,
//                          backend, shape, contiguity).
//   DefectionPartial::finalize reduces to the DefectionSeries figures.
//
// run_defection_experiment is exactly partial + finalize, so a sharded
// exact-backend execution (N partials merged by the merge_partials tool)
// is bit-identical to a single-process run.
#pragma once

#include "consensus/params.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/network.hpp"
#include "sim/partial.hpp"
#include "sim/scenario_policy.hpp"
#include "util/json.hpp"

namespace roleshare::sim {

struct DefectionExperimentConfig {
  /// Network template; its seed is the experiment's *root* seed — run k
  /// simulates with the independent stream root.split(k).
  NetworkConfig network;
  std::size_t runs = 100;
  std::size_t rounds = 50;
  /// Worker threads for the run fan-out (0 = all hardware threads).
  /// Aggregates are bit-identical for every thread count.
  std::size_t threads = 1;
  /// Worker threads for each run's per-node round-engine loops (0 = all
  /// hardware threads). Forced serial while the run fan-out is parallel;
  /// aggregates are bit-identical for every inner thread count too.
  std::size_t inner_threads = 1;
  double trim_fraction = 0.2;
  /// When true the consensus committee expectations are re-scaled to each
  /// run's total stake (required for small simulated networks).
  bool scale_params_to_stake = true;
  consensus::ConsensusParams params{};
  /// Behaviour-policy layer applied per run (adaptive / stake-correlated
  /// defection, churn). The default — scripted, no churn — leaves every
  /// aggregate bit-identical to the pre-policy experiment.
  ScenarioPolicyConfig policy{};
  /// Reduction backend: Exact stores every sample (bit-identical
  /// baseline); Streaming keeps O(rounds) memory independent of `runs`
  /// with the documented reservoir/P² error bound.
  AggBackend agg = AggBackend::Exact;
  /// Run window THIS process executes (default: all runs) — the sharded
  /// fan-out knob. Seeding stays keyed on global run indices.
  RunShard shard{};
};

/// Trimmed-mean outcome fractions for one round index.
struct RoundAggregate {
  double final_pct = 0.0;      // % of nodes extracting a final block
  double tentative_pct = 0.0;  // % extracting only a tentative block
  double none_pct = 0.0;       // % extracting no block
};

struct DefectionSeries {
  std::vector<RoundAggregate> rounds;
  /// Fraction of executed runs in which the chain gained at least one
  /// non-empty block (network-level liveness indicator).
  double runs_with_progress = 0.0;
  /// Mean live-node count per round across runs — round-varying under
  /// churn, constant node_count otherwise.
  std::vector<double> live_series;
  /// Smallest / largest live count observed in any (run, round).
  std::size_t min_live = 0;
  std::size_t max_live = 0;
  /// Mean fraction of live nodes playing Cooperate per round — the
  /// series that shows adaptive defection unraveling (or not).
  std::vector<double> cooperation_series;
  /// Bytes held by the reduction accumulators that produced this series —
  /// the exact-vs-streaming memory story (bench reporting).
  std::size_t accumulator_bytes = 0;
};

/// The experiment-specific half of a DefectionPartial: the three outcome
/// accumulators (final, tentative, none: the document's "metrics" block)
/// and the live/cooperation series, each group in its own
/// ReductionState, plus the progress and live-count counters. Window
/// bookkeeping and compatibility checks live in the shared
/// PartialEnvelope (sim/partial.hpp).
class DefectionPayload {
 public:
  static constexpr std::string_view kKind = "defection";

  DefectionPayload(std::size_t rounds, AggBackend backend);

  /// Records one run's per-round contribution (called by
  /// run_defection_partial in run-index order).
  void record_round(std::size_t round_index, double final_pct,
                    double tentative_pct, double none_pct, double live,
                    double coop_pct);
  void record_run_progress(bool progress);

  /// Folds `next` in after this payload's own samples (the envelope has
  /// already vetted kind / spec hash / backend / shape / contiguity).
  void merge(const DefectionPayload& next);

  /// Reduces to the figure series. runs_with_progress is the fraction of
  /// the runs covered by the envelope's window.
  DefectionSeries finalize(const PartialEnvelope& envelope,
                           double trim_fraction) const;

  std::size_t accumulator_bytes() const {
    return outcomes_.memory_bytes() + state_.memory_bytes();
  }

  util::json::Value to_json() const;
  static DefectionPayload from_json(const util::json::Value& value,
                                    const PartialEnvelope& envelope);

 private:
  DefectionPayload(ReductionState outcomes, ReductionState state)
      : outcomes_(std::move(outcomes)), state_(std::move(state)) {}

  ReductionState outcomes_;  // final, tentative, none
  ReductionState state_;     // live, coop
  std::size_t runs_with_progress_ = 0;
  std::size_t min_live_ = 0;
  std::size_t max_live_ = 0;
  bool any_live_ = false;
};

/// The mergeable reduction state of one executed run window. Merging the
/// partials of contiguous windows in run-index order then finalizing is
/// bit-identical (exact backend) to executing the union in one process.
using DefectionPartial = ExperimentPartial<DefectionPayload>;

/// Canonical echo of every config field that affects results (never
/// thread counts or shard windows) — the input of the envelope's spec
/// hash, shared by all partials of one experiment.
util::json::Value defection_spec_echo(const DefectionExperimentConfig& config);

/// Executes config.shard's run window on the shared run_experiment
/// engine and reduces it into a mergeable partial. Deterministic in
/// config.network.seed, independent of config.threads / inner_threads.
DefectionPartial run_defection_partial(const DefectionExperimentConfig& config);

/// run_defection_partial + finalize. For a whole-range shard this is the
/// historical single-process experiment, unchanged bit for bit under the
/// exact backend.
DefectionSeries run_defection_experiment(
    const DefectionExperimentConfig& config);

}  // namespace roleshare::sim
