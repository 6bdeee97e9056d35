#include "sim/reward_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "econ/foundation_schedule.hpp"
#include "sim/experiment_runner.hpp"
#include "util/alias_sampler.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace roleshare::sim {

StakeSpec StakeSpec::uniform(std::int64_t lo, std::int64_t hi) {
  StakeSpec s;
  s.kind = Kind::Uniform;
  s.a = static_cast<double>(lo);
  s.b = static_cast<double>(hi);
  return s;
}

StakeSpec StakeSpec::normal(double mean, double sigma) {
  StakeSpec s;
  s.kind = Kind::Normal;
  s.a = mean;
  s.b = sigma;
  return s;
}

std::string StakeSpec::name() const { return make()->name(); }

std::unique_ptr<util::StakeDistribution> StakeSpec::make() const {
  if (kind == Kind::Uniform) {
    return util::make_uniform_stake(static_cast<std::int64_t>(a),
                                    static_cast<std::int64_t>(b));
  }
  return util::make_normal_stake(a, b);
}

namespace {

/// Draws a role's member set by sub-user sampling: `tau` stake-weighted
/// draws; distinct drawn nodes form the set. Returns the minimum stake
/// among members (0 if none).
std::int64_t sample_role_min_stake(
    const util::AliasSampler& sampler, const std::vector<std::int64_t>& stakes,
    std::uint64_t tau, util::Rng& rng,
    std::unordered_set<std::size_t>& members_out) {
  std::int64_t min_stake = 0;
  for (std::uint64_t d = 0; d < tau; ++d) {
    const std::size_t v = sampler.sample(rng);
    members_out.insert(v);
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

RewardRun execute_run(const RewardExperimentConfig& config,
                      const econ::RewardOptimizer& optimizer,
                      const util::StakeDistribution& dist, util::Rng& rng,
                      const util::InnerExecutor& exec) {
  RewardRun run;
  run.per_round_bi.assign(config.rounds_per_run, 0.0);

  std::vector<std::int64_t> stakes = dist.sample_many(rng, config.node_count);
  std::int64_t total_stake = 0;
  for (const std::int64_t s : stakes) total_stake += s;

  for (std::size_t round = 0; round < config.rounds_per_run; ++round) {
    // Committee sampling (sub-user draws, alias table rebuilt per round
    // because the churn below shifts weights).
    std::vector<double> weights(stakes.begin(), stakes.end());
    const util::AliasSampler sampler(weights);

    std::unordered_set<std::size_t> leaders, committee;
    const std::int64_t min_leader = sample_role_min_stake(
        sampler, stakes, config.leader_stake, rng, leaders);
    const std::int64_t min_committee = sample_role_min_stake(
        sampler, stakes, config.committee_stake, rng, committee);

    // Others: everyone else. s*_k is the min stake among others at or
    // above the Fig-7(c) threshold; S_K excludes filtered nodes. The
    // O(node_count) scan fans out in chunks; the partials (integer sum and
    // min) merge exactly, so the result is identical for every executor.
    const std::int64_t threshold = config.min_other_stake.value_or(0);
    const std::size_t chunks = util::InnerExecutor::chunk_count(stakes.size());
    std::vector<std::int64_t> chunk_min(chunks, 0);
    std::vector<std::int64_t> chunk_sum(chunks, 0);
    exec.for_each_chunk(
        stakes.size(), [&](std::size_t c, std::size_t begin, std::size_t end) {
          for (std::size_t v = begin; v < end; ++v) {
            if (leaders.contains(v) || committee.contains(v)) continue;
            if (stakes[v] < threshold) continue;
            chunk_sum[c] += stakes[v];
            if (chunk_min[c] == 0 || stakes[v] < chunk_min[c])
              chunk_min[c] = stakes[v];
          }
        });
    std::int64_t min_other = 0;
    std::int64_t others_stake = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      others_stake += chunk_sum[c];
      if (chunk_min[c] != 0 && (min_other == 0 || chunk_min[c] < min_other))
        min_other = chunk_min[c];
    }

    econ::BoundInputs inputs;
    inputs.stake_leaders = static_cast<double>(config.leader_stake);
    inputs.stake_committee = static_cast<double>(config.committee_stake);
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
        others_stake > 0 ? optimizer.optimize(inputs, config.costs)
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
    for (std::size_t t = 0; t < config.tx_parties; ++t) {
      const std::size_t v = sampler.sample(rng);
      const std::int64_t delta = rng.uniform_int(config.tx_lo, config.tx_hi);
      const std::int64_t updated =
          std::max<std::int64_t>(1, stakes[v] + delta);
      total_stake += updated - stakes[v];
      stakes[v] = updated;
    }
  }
  run.total_stake = static_cast<double>(total_stake);
  return run;
}

}  // namespace

RewardPayload::RewardPayload(std::size_t rounds, AggBackend backend,
                             const StreamingAggConfig& streaming)
    : per_round_(make_accumulator(backend, rounds, streaming)),
      bi_(backend),
      alpha_(backend),
      beta_(backend),
      stake_(backend) {}

RewardPayload::RewardPayload(std::unique_ptr<RoundAccumulator> per_round,
                             ScalarBank bi, ScalarBank alpha, ScalarBank beta,
                             ScalarBank stake, std::size_t infeasible)
    : per_round_(std::move(per_round)),
      bi_(std::move(bi)),
      alpha_(std::move(alpha)),
      beta_(std::move(beta)),
      stake_(std::move(stake)),
      infeasible_(infeasible) {}

void RewardPayload::record_feasible(double bi_algos, double alpha,
                                    double beta) {
  bi_.record(bi_algos);
  alpha_.record(alpha);
  beta_.record(beta);
}

void RewardPayload::record_round_bi(std::size_t round_index,
                                    double bi_algos) {
  per_round_->record(round_index, bi_algos);
}

void RewardPayload::record_run(double total_stake,
                               std::size_t infeasible_rounds) {
  stake_.record(total_stake);
  infeasible_ += infeasible_rounds;
}

void RewardPayload::merge(const RewardPayload& next) {
  per_round_->merge(*next.per_round_);
  bi_.merge(next.bi_);
  alpha_.merge(next.alpha_);
  beta_.merge(next.beta_);
  stake_.merge(next.stake_);
  infeasible_ += next.infeasible_;
}

RewardExperimentResult RewardPayload::finalize(
    const PartialEnvelope& envelope) const {
  RewardExperimentResult result;
  result.foundation_per_round.assign(envelope.rounds, 0.0);
  for (std::size_t r = 0; r < envelope.rounds; ++r) {
    result.foundation_per_round[r] = ledger::to_algos(
        econ::FoundationSchedule::reward_for_round(r + 1));
  }
  if (envelope.backend == AggBackend::Exact) result.bi_algos = bi_.samples();
  result.bi_per_round_mean = per_round_->mean_series();
  result.mean_bi = bi_.count() > 0 ? bi_.mean() : 0.0;
  result.mean_total_stake = stake_.count() > 0 ? stake_.mean() : 0.0;
  result.mean_alpha = alpha_.count() > 0 ? alpha_.mean() : 0.0;
  result.mean_beta = beta_.count() > 0 ? beta_.mean() : 0.0;
  result.infeasible_rounds = infeasible_;
  result.accumulator_bytes = accumulator_bytes();
  return result;
}

std::size_t RewardPayload::accumulator_bytes() const {
  return per_round_->memory_bytes() + bi_.memory_bytes() +
         alpha_.memory_bytes() + beta_.memory_bytes() +
         stake_.memory_bytes();
}

util::json::Value RewardPayload::to_json() const {
  util::json::Value v = util::json::Value::object();
  v.set("per_round", per_round_->to_json());
  v.set("bi", bi_.to_json());
  v.set("alpha", alpha_.to_json());
  v.set("beta", beta_.to_json());
  v.set("stake", stake_.to_json());
  v.set("infeasible", infeasible_);
  return v;
}

RewardPayload RewardPayload::from_json(const util::json::Value& value,
                                       const PartialEnvelope& envelope) {
  RewardPayload p(accumulator_from_json(value.at("per_round")),
                  ScalarBank::from_json(value.at("bi")),
                  ScalarBank::from_json(value.at("alpha")),
                  ScalarBank::from_json(value.at("beta")),
                  ScalarBank::from_json(value.at("stake")),
                  value.at("infeasible").as_size());
  RS_REQUIRE(p.per_round_->backend() == envelope.backend,
             "partial JSON accumulator backend disagrees with the envelope");
  RS_REQUIRE(p.per_round_->rounds() == envelope.rounds,
             "partial JSON accumulator round count disagrees with the "
             "envelope");
  for (const ScalarBank* bank : {&p.bi_, &p.alpha_, &p.beta_, &p.stake_}) {
    RS_REQUIRE(bank->backend() == envelope.backend,
               "partial JSON scalar-bank backend disagrees with the "
               "envelope");
  }
  return p;
}

util::json::Value reward_spec_echo(const RewardExperimentConfig& config) {
  using util::json::Value;
  Value v = Value::object();
  v.set("experiment", std::string(RewardPayload::kKind));
  v.set("node_count", config.node_count);
  v.set("seed", config.seed);
  v.set("stakes_kind",
        config.stakes.kind == StakeSpec::Kind::Uniform ? "uniform" : "normal");
  v.set("stakes_a", config.stakes.a);
  v.set("stakes_b", config.stakes.b);
  v.set("runs", config.runs);
  v.set("rounds_per_run", config.rounds_per_run);
  v.set("leader_cost", config.costs.leader_cost());
  v.set("committee_cost", config.costs.committee_cost());
  v.set("other_cost", config.costs.other_cost());
  v.set("defection_cost", config.costs.defection_cost());
  v.set("optimizer_margin", config.optimizer.margin);
  v.set("optimizer_min_share", config.optimizer.min_share);
  v.set("leader_stake", config.leader_stake);
  v.set("committee_stake", config.committee_stake);
  v.set("tx_parties", config.tx_parties);
  v.set("tx_lo", config.tx_lo);
  v.set("tx_hi", config.tx_hi);
  v.set("min_other_stake", config.min_other_stake
                               ? Value(*config.min_other_stake)
                               : Value());
  v.set("agg", to_string(config.agg));
  v.set("reservoir_capacity", config.streaming.reservoir_capacity);
  Value grid = Value::array();
  for (const double q : config.streaming.p2_grid) grid.push_back(q);
  v.set("p2_grid", std::move(grid));
  return v;
}

RewardPartial run_reward_partial(const RewardExperimentConfig& config) {
  RS_REQUIRE(config.node_count > 2, "population too small");

  const econ::RewardOptimizer optimizer(config.optimizer);
  const auto dist = config.stakes.make();

  const ExperimentSpec spec{config.runs,    config.rounds_per_run,
                            config.seed,    config.threads,
                            config.inner_threads, config.shard};
  validate(spec);
  const ResolvedShard shard = resolve_shard(spec);
  RewardPartial partial(
      make_envelope(RewardPayload::kKind,
                    spec_hash_hex(reward_spec_echo(config)), config.agg,
                    config.runs, config.rounds_per_run, shard.begin,
                    shard.end),
      RewardPayload(config.rounds_per_run, config.agg, config.streaming));

  run_and_reduce(
      spec,
      [&](std::size_t, util::Rng& rng, const RunContext& ctx) {
        return execute_run(config, optimizer, *dist, rng,
                           util::InnerExecutor(ctx.inner_pool));
      },
      [&](std::size_t, RewardRun run) {
        // Replayed in run order, feeding every bank in exactly the sample
        // order a serial loop would produce.
        RewardPayload& payload = partial.payload();
        for (std::size_t i = 0; i < run.bi_algos.size(); ++i)
          payload.record_feasible(run.bi_algos[i], run.alphas[i],
                                  run.betas[i]);
        for (std::size_t r = 0; r < config.rounds_per_run; ++r)
          payload.record_round_bi(r, run.per_round_bi[r]);
        payload.record_run(run.total_stake, run.infeasible);
      });
  return partial;
}

RewardExperimentResult run_reward_experiment(
    const RewardExperimentConfig& config) {
  return run_reward_partial(config).finalize();
}

}  // namespace roleshare::sim
