#include "sim/defection_experiment.hpp"

#include <algorithm>
#include <optional>

#include "sim/round_engine.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace {

/// What one run contributes to the aggregate: per-round outcome
/// percentages plus the liveness flag. Small and trivially movable so the
/// thread-pool fan-out stays cheap.
struct DefectionRun {
  struct RoundFractions {
    double final_pct = 0.0;
    double tentative_pct = 0.0;
    double none_pct = 0.0;
    double live = 0.0;      // live-node count this round
    double coop_pct = 0.0;  // % of live nodes playing Cooperate
  };
  std::vector<RoundFractions> rounds;
  bool progress = false;
};

DefectionRun execute_run(const DefectionExperimentConfig& config,
                         std::uint64_t run_seed,
                         util::ThreadPool* inner_pool) {
  NetworkConfig net_config = config.network;
  net_config.seed = run_seed;
  Network network(net_config);

  consensus::ConsensusParams params = config.params;
  if (config.scale_params_to_stake) {
    params = consensus::ConsensusParams::scaled_for(
        network.accounts().total_stake());
    params.step_threshold = config.params.step_threshold;
    params.final_threshold = config.params.final_threshold;
    params.max_binary_iterations = config.params.max_binary_iterations;
    params.proposal_timeout_ms = config.params.proposal_timeout_ms;
    params.step_timeout_ms = config.params.step_timeout_ms;
  }

  RoundEngine engine(network, params, inner_pool);
  // The policy layer only engages when it changes anything; a disabled
  // policy keeps the run bit-identical to the pre-policy experiment.
  std::optional<ScenarioPolicy> policy;
  if (config.policy.enabled()) {
    ScenarioPolicyConfig policy_config = config.policy;
    // Adaptive candidates must best-respond in the game this run's
    // consensus actually plays.
    policy_config.committee_threshold = params.step_threshold;
    policy.emplace(policy_config, network);
  }

  DefectionRun run;
  run.rounds.reserve(config.rounds);
  RoundResult last;
  for (std::size_t r = 0; r < config.rounds; ++r) {
    if (policy)
      policy->begin_round(r, r > 0 ? &last : nullptr, engine.executor());
    RoundResult result = engine.run_round();
    std::size_t coop = 0;
    const auto& strategies = network.strategies();
    for (std::size_t v = 0; v < strategies.size(); ++v) {
      if (network.live(static_cast<ledger::NodeId>(v)) &&
          strategies[v] == game::Strategy::Cooperate)
        ++coop;
    }
    run.rounds.push_back({result.final_fraction * 100.0,
                          result.tentative_fraction * 100.0,
                          result.none_fraction * 100.0,
                          static_cast<double>(result.live_count),
                          100.0 * static_cast<double>(coop) /
                              static_cast<double>(result.live_count)});
    run.progress = run.progress || result.non_empty_block;
    last = std::move(result);
  }
  return run;
}

// DefectionPayload's entries after the metrics block, in document order.
enum Series : std::size_t { kLive, kCoop };

const ReductionLayout kLayout{{"live", "coop"}, {}};

}  // namespace

DefectionPayload::DefectionPayload(std::size_t rounds, AggBackend backend)
    : metrics_(rounds, backend), state_(kLayout, backend, rounds) {}

void DefectionPayload::record_round(std::size_t round_index, double final_pct,
                                    double tentative_pct, double none_pct,
                                    double live, double coop_pct) {
  metrics_.record(round_index, final_pct, tentative_pct, none_pct);
  state_.accumulator(kLive).record(round_index, live);
  state_.accumulator(kCoop).record(round_index, coop_pct);
  const auto live_count = static_cast<std::size_t>(live);
  min_live_ = any_live_ ? std::min(min_live_, live_count) : live_count;
  max_live_ = any_live_ ? std::max(max_live_, live_count) : live_count;
  any_live_ = true;
}

void DefectionPayload::record_run_progress(bool progress) {
  if (progress) ++runs_with_progress_;
}

void DefectionPayload::merge(const DefectionPayload& next) {
  metrics_.merge(next.metrics_);
  state_.merge(next.state_);
  runs_with_progress_ += next.runs_with_progress_;
  if (next.any_live_) {
    min_live_ = any_live_ ? std::min(min_live_, next.min_live_)
                          : next.min_live_;
    max_live_ = any_live_ ? std::max(max_live_, next.max_live_)
                          : next.max_live_;
    any_live_ = true;
  }
}

DefectionSeries DefectionPayload::finalize(const PartialEnvelope& envelope,
                                           double trim_fraction) const {
  DefectionSeries series;
  series.rounds = metrics_.aggregate(trim_fraction);
  series.runs_with_progress = static_cast<double>(runs_with_progress_) /
                              static_cast<double>(envelope.runs_executed());
  series.live_series = state_.accumulator(kLive).mean_series();
  series.cooperation_series = state_.accumulator(kCoop).mean_series();
  series.min_live = min_live_;
  series.max_live = max_live_;
  series.accumulator_bytes = accumulator_bytes();
  return series;
}

util::json::Value DefectionPayload::to_json() const {
  util::json::Value head = util::json::Value::object();
  head.set("metrics", metrics_.to_json());
  util::json::Value v = state_.to_json(std::move(head));
  v.set("runs_with_progress", runs_with_progress_);
  v.set("any_live", any_live_);
  v.set("min_live", min_live_);
  v.set("max_live", max_live_);
  return v;
}

DefectionPayload DefectionPayload::from_json(const util::json::Value& value,
                                             const PartialEnvelope& envelope) {
  DefectionPayload p(
      OutcomeMetrics::from_json(value.at("metrics"), envelope.backend,
                                envelope.rounds, "metrics."),
      ReductionState::from_json(kLayout, value, envelope.backend,
                                envelope.rounds));
  p.runs_with_progress_ = value.at("runs_with_progress").as_size();
  p.any_live_ = value.at("any_live").as_bool();
  p.min_live_ = value.at("min_live").as_size();
  p.max_live_ = value.at("max_live").as_size();
  return p;
}

util::json::Value defection_spec_echo(
    const DefectionExperimentConfig& config) {
  using util::json::Value;
  Value v = Value::object();
  v.set("experiment", std::string(DefectionPayload::kKind));
  v.set("network", network_spec_echo(config.network));
  v.set("runs", config.runs);
  v.set("rounds", config.rounds);
  v.set("scale_params_to_stake",
        util::json::Value(config.scale_params_to_stake));
  Value params = Value::object();
  params.set("expected_proposer_stake", config.params.expected_proposer_stake);
  params.set("expected_step_stake", config.params.expected_step_stake);
  params.set("expected_final_stake", config.params.expected_final_stake);
  params.set("step_threshold", config.params.step_threshold);
  params.set("final_threshold", config.params.final_threshold);
  params.set("max_binary_iterations", config.params.max_binary_iterations);
  params.set("proposal_timeout_ms", config.params.proposal_timeout_ms);
  params.set("step_timeout_ms", config.params.step_timeout_ms);
  v.set("params", std::move(params));
  Value policy = Value::object();
  policy.set("kind", std::string(to_string(config.policy.kind)));
  policy.set("defect_at_bottom", config.policy.defect_at_bottom);
  policy.set("defect_at_top", config.policy.defect_at_top);
  policy.set("leader_cost", config.policy.costs.leader_cost());
  policy.set("committee_cost", config.policy.costs.committee_cost());
  policy.set("other_cost", config.policy.costs.other_cost());
  policy.set("defection_cost", config.policy.costs.defection_cost());
  policy.set("churn_leave", config.policy.churn.leave_probability);
  policy.set("churn_join", config.policy.churn.join_probability);
  policy.set("churn_min_live", config.policy.churn.min_live);
  v.set("policy", std::move(policy));
  append_agg_echo(v, config.agg);
  return v;
}

DefectionPartial run_defection_partial(
    const DefectionExperimentConfig& config) {
  return run_partial<DefectionPayload>(
      {config.runs, config.rounds, config.network.seed, config.threads,
       config.inner_threads, config.shard},
      config.agg, defection_spec_echo(config),
      [&config](std::size_t, util::Rng& rng, const RunContext& ctx) {
        // The network rebuilds its stream from a scalar seed, so hand it
        // this run's seed material (== root.split(run)).
        return execute_run(config, rng.seed_material(), ctx.inner_pool);
      },
      [](DefectionPayload& payload, const DefectionRun& run) {
        for (std::size_t r = 0; r < run.rounds.size(); ++r) {
          payload.record_round(r, run.rounds[r].final_pct,
                               run.rounds[r].tentative_pct,
                               run.rounds[r].none_pct, run.rounds[r].live,
                               run.rounds[r].coop_pct);
        }
        payload.record_run_progress(run.progress);
      });
}

DefectionSeries run_defection_experiment(
    const DefectionExperimentConfig& config) {
  return run_defection_partial(config).finalize(config.trim_fraction);
}

}  // namespace roleshare::sim
