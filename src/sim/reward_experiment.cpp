#include "sim/reward_experiment.hpp"

#include <algorithm>
#include <cmath>

#include "consensus/params.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/optimizer.hpp"
#include "sim/experiment_runner.hpp"
#include "util/alias_sampler.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace roleshare::sim {

namespace {

/// The §V-B committee-stake expectations each round samples: S_L =
/// tau_proposer and S_M = 3 tau_step + tau_final.
const consensus::ConsensusParams kParams{};

/// Per-round transaction churn: kTxParties stake-weighted draws, each
/// moving U(kTxLo, kTxHi) Algos (negative = send, positive = receive).
constexpr std::size_t kTxParties = 1000;
constexpr std::int64_t kTxLo = -4;
constexpr std::int64_t kTxHi = 4;

/// Draws a role's member set by sub-user sampling: `tau` stake-weighted
/// draws; distinct drawn nodes form the set, and each one's `in_role`
/// byte is set. Returns the minimum stake among members (0 if none).
std::int64_t sample_role_min_stake(const util::AliasSampler& sampler,
                                   const std::vector<std::int64_t>& stakes,
                                   std::uint64_t tau, util::Rng& rng,
                                   std::vector<std::uint8_t>& in_role) {
  std::int64_t min_stake = 0;
  for (std::uint64_t d = 0; d < tau; ++d) {
    const std::size_t v = sampler.sample(rng);
    in_role[v] = 1;
    if (min_stake == 0 || stakes[v] < min_stake) min_stake = stakes[v];
  }
  return min_stake;
}

/// One run's contribution: every per-round optimizer outcome, in round
/// order, so the reduction can replay them exactly as a serial loop would.
struct RewardRun {
  std::vector<double> bi_algos;      // feasible rounds only, round order
  std::vector<double> per_round_bi;  // length rounds_per_run, 0 = infeasible
  std::vector<double> alphas;        // feasible rounds only
  std::vector<double> betas;
  double total_stake = 0.0;
  std::size_t infeasible = 0;
};

RewardRun execute_run(const RewardExperimentConfig& config, util::Rng& rng,
                      const util::InnerExecutor& exec) {
  const std::uint64_t leader_stake = kParams.expected_proposer_stake;
  const std::uint64_t committee_stake =
      kParams.expected_committee_stake_per_round();
  const econ::RewardOptimizer optimizer;
  const econ::CostModel costs;
  RewardRun run;
  run.per_round_bi.assign(config.rounds_per_run, 0.0);

  std::vector<std::int64_t> stakes =
      config.stakes.sample_many(rng, config.node_count);
  std::int64_t total_stake = 0;
  for (const std::int64_t s : stakes) total_stake += s;

  // The round's buffers live for the whole run: the alias table is rebuilt
  // in place, and one byte per node marks the leader and committee members.
  std::vector<double> weights(stakes.begin(), stakes.end());
  util::AliasSampler sampler(weights);
  std::vector<std::uint8_t> in_role(stakes.size());
  const std::size_t chunks = util::InnerExecutor::chunk_count(stakes.size());
  std::vector<std::int64_t> chunk_min(chunks);
  std::vector<std::int64_t> chunk_sum(chunks);
  const std::int64_t threshold = config.min_other_stake.value_or(0);

  for (std::size_t round = 0; round < config.rounds_per_run; ++round) {
    // Committee sampling (sub-user draws, alias table rebuilt per round
    // because the churn below shifts weights).
    if (round > 0) {
      weights.assign(stakes.begin(), stakes.end());
      sampler.rebuild(weights);
    }

    std::fill(in_role.begin(), in_role.end(), std::uint8_t{0});
    const std::int64_t min_leader = sample_role_min_stake(
        sampler, stakes, leader_stake, rng, in_role);
    const std::int64_t min_committee = sample_role_min_stake(
        sampler, stakes, committee_stake, rng, in_role);

    // Others: everyone else. s*_k is the min stake among others at or
    // above the Fig-7(c) threshold; S_K excludes filtered nodes. The
    // O(node_count) scan fans out in chunks; the partials (integer sum and
    // min) merge exactly, so the result is identical for every executor.
    exec.for_each_chunk(
        stakes.size(), [&](std::size_t c, std::size_t begin, std::size_t end) {
          std::int64_t sum = 0;
          std::int64_t min = 0;
          for (std::size_t v = begin; v < end; ++v) {
            if (in_role[v] != 0 || stakes[v] < threshold) continue;
            sum += stakes[v];
            if (min == 0 || stakes[v] < min) min = stakes[v];
          }
          chunk_sum[c] = sum;
          chunk_min[c] = min;
        });
    std::int64_t min_other = 0;
    std::int64_t others_stake = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      others_stake += chunk_sum[c];
      if (chunk_min[c] != 0 && (min_other == 0 || chunk_min[c] < min_other))
        min_other = chunk_min[c];
    }

    econ::BoundInputs inputs;
    inputs.stake_leaders = static_cast<double>(leader_stake);
    inputs.stake_committee = static_cast<double>(committee_stake);
    inputs.stake_others = static_cast<double>(others_stake);
    inputs.min_stake_leader =
        static_cast<double>(std::max<std::int64_t>(1, min_leader));
    inputs.min_stake_committee =
        static_cast<double>(std::max<std::int64_t>(1, min_committee));
    inputs.min_stake_other =
        static_cast<double>(std::max<std::int64_t>(1, min_other));

    // When the leader and committee draws cover every node at or above
    // the threshold, S_K = 0 and the bounds are undefined: the round is
    // infeasible, as an empty role is in RoleBasedScheme::required_budget.
    // The churn below still runs, so the draws that follow are unchanged.
    const econ::OptimizerResult opt =
        others_stake > 0 ? optimizer.optimize(inputs, costs)
                         : econ::OptimizerResult{};
    if (!opt.feasible) {
      ++run.infeasible;
    } else {
      const double bi_algos = opt.min_bi / 1e6;  // µAlgos -> Algos
      run.bi_algos.push_back(bi_algos);
      run.per_round_bi[round] = bi_algos;
      run.alphas.push_back(opt.split.alpha);
      run.betas.push_back(opt.split.beta);
    }

    // Transaction churn: stake-weighted parties exchange a few Algos.
    for (std::size_t t = 0; t < kTxParties; ++t) {
      const std::size_t v = sampler.sample(rng);
      const std::int64_t delta = rng.uniform_int(kTxLo, kTxHi);
      const std::int64_t updated =
          std::max<std::int64_t>(1, stakes[v] + delta);
      total_stake += updated - stakes[v];
      stakes[v] = updated;
    }
  }
  run.total_stake = static_cast<double>(total_stake);
  return run;
}

// RewardPayload's entries, in document order.
enum Series : std::size_t { kPerRound };
enum Bank : std::size_t { kBi, kAlpha, kBeta, kStake };

const ReductionLayout kLayout{{"per_round"}, {"bi", "alpha", "beta", "stake"}};

}  // namespace

RewardPayload::RewardPayload(std::size_t rounds, AggBackend backend)
    : state_(kLayout, backend, rounds) {}

void RewardPayload::record_feasible(double bi_algos, double alpha,
                                    double beta) {
  state_.bank(kBi).record(bi_algos);
  state_.bank(kAlpha).record(alpha);
  state_.bank(kBeta).record(beta);
}

void RewardPayload::record_round_bi(std::size_t round_index,
                                    double bi_algos) {
  state_.accumulator(kPerRound).record(round_index, bi_algos);
}

void RewardPayload::record_run(double total_stake,
                               std::size_t infeasible_rounds) {
  state_.bank(kStake).record(total_stake);
  infeasible_ += infeasible_rounds;
}

void RewardPayload::merge(const RewardPayload& next) {
  state_.merge(next.state_);
  infeasible_ += next.infeasible_;
}

RewardExperimentResult RewardPayload::finalize(
    const PartialEnvelope& envelope) const {
  const ScalarBank& bi = state_.bank(kBi);
  const ScalarBank& alpha = state_.bank(kAlpha);
  const ScalarBank& beta = state_.bank(kBeta);
  const ScalarBank& stake = state_.bank(kStake);
  RewardExperimentResult result;
  result.foundation_per_round.assign(envelope.rounds, 0.0);
  for (std::size_t r = 0; r < envelope.rounds; ++r) {
    result.foundation_per_round[r] = ledger::to_algos(
        econ::FoundationSchedule::reward_for_round(r + 1));
  }
  if (envelope.backend == AggBackend::Exact) result.bi_algos = bi.samples();
  result.bi_per_round_mean = state_.accumulator(kPerRound).mean_series();
  result.mean_bi = bi.count() > 0 ? bi.mean() : 0.0;
  result.mean_total_stake = stake.count() > 0 ? stake.mean() : 0.0;
  result.mean_alpha = alpha.count() > 0 ? alpha.mean() : 0.0;
  result.mean_beta = beta.count() > 0 ? beta.mean() : 0.0;
  result.infeasible_rounds = infeasible_;
  result.accumulator_bytes = accumulator_bytes();
  return result;
}

util::json::Value RewardPayload::to_json() const {
  util::json::Value v = state_.to_json();
  v.set("infeasible", infeasible_);
  return v;
}

RewardPayload RewardPayload::from_json(const util::json::Value& value,
                                       const PartialEnvelope& envelope) {
  RewardPayload p(ReductionState::from_json(kLayout, value, envelope));
  p.infeasible_ = value.at("infeasible").as_size();
  return p;
}

util::json::Value reward_spec_echo(const RewardExperimentConfig& config) {
  using util::json::Value;
  Value v = Value::object();
  v.set("experiment", std::string(RewardPayload::kKind));
  v.set("node_count", config.node_count);
  v.set("seed", config.seed);
  v.set("stakes_kind",
        config.stakes.kind() == util::StakeDistribution::Kind::Uniform
            ? "uniform"
            : "normal");
  v.set("stakes_a", config.stakes.a());
  v.set("stakes_b", config.stakes.b());
  v.set("runs", config.runs);
  v.set("rounds_per_run", config.rounds_per_run);
  append_cost_echo(v);
  v.set("optimizer_margin", econ::RewardOptimizer::kMargin);
  v.set("optimizer_min_share", econ::RewardOptimizer::kMinShare);
  v.set("leader_stake", kParams.expected_proposer_stake);
  v.set("committee_stake", kParams.expected_committee_stake_per_round());
  v.set("tx_parties", kTxParties);
  v.set("tx_lo", kTxLo);
  v.set("tx_hi", kTxHi);
  v.set("min_other_stake", config.min_other_stake
                               ? Value(*config.min_other_stake)
                               : Value());
  append_agg_echo(v, config.agg);
  return v;
}

RewardPartial run_reward_partial(const RewardExperimentConfig& config) {
  RS_REQUIRE(config.node_count > 2, "population too small");

  return run_partial<RewardPayload>(
      {config.runs, config.rounds_per_run, config.seed, config.threads,
       config.inner_threads, config.shard},
      config.agg, reward_spec_echo(config),
      [&config](std::size_t, util::Rng& rng, const RunContext& ctx) {
        return execute_run(config, rng, util::InnerExecutor(ctx.inner_pool));
      },
      [&config](RewardPayload& payload, const RewardRun& run) {
        // Replayed in run order, feeding every bank in exactly the sample
        // order a serial loop would produce.
        for (std::size_t i = 0; i < run.bi_algos.size(); ++i)
          payload.record_feasible(run.bi_algos[i], run.alphas[i],
                                  run.betas[i]);
        for (std::size_t r = 0; r < config.rounds_per_run; ++r)
          payload.record_round_bi(r, run.per_round_bi[r]);
        payload.record_run(run.total_stake, run.infeasible);
      });
}

}  // namespace roleshare::sim
