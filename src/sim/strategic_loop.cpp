#include "sim/strategic_loop.hpp"

#include "econ/foundation_schedule.hpp"
#include "econ/role_based.hpp"
#include "game/best_response.hpp"
#include "sim/experiment_runner.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::sim {

StrategicLoopResult run_strategic_loop(const StrategicLoopConfig& config,
                                       util::ThreadPool* inner_pool) {
  RS_REQUIRE(config.rounds > 0, "at least one round");
  Network net(config.network);
  // The round engine's per-node loops and the best-response sweep below
  // share the one caller-owned pool — never two pools in one run.
  RoundEngine engine(net,
                     consensus::ConsensusParams::scaled_for(
                         net.accounts().total_stake()),
                     inner_pool);

  econ::RoleBasedScheme role_based{econ::CostModel{}};

  game::Profile profile(net.node_count(), config.initial);
  StrategicLoopResult result;
  // Churn state: per-(round, node) streams off the shared scenario-policy
  // root, so a strategic loop and a policy-driven defection run with the
  // same seed see the same join/leave pattern.
  const util::Rng policy_root = scenario_policy_root(config.network.seed);
  std::vector<std::uint8_t> was_live(net.node_count(), 1);

  for (std::size_t t = 0; t < config.rounds; ++t) {
    if (config.churn.enabled()) {
      apply_churn(net, config.churn, policy_root, t);
      for (std::size_t v = 0; v < profile.size(); ++v) {
        const auto id = static_cast<ledger::NodeId>(v);
        if (!net.live(id)) {
          profile[v] = game::Strategy::Offline;
        } else if (!was_live[v]) {
          profile[v] = config.initial;  // rejoined: restart from the seed
        }
        was_live[v] = net.live(id) ? 1 : 0;
      }
    }
    net.set_strategies(profile);
    const RoundResult round = engine.run_round();

    StrategicRoundStats stats;
    stats.round = round.round;
    stats.final_fraction = round.final_fraction;
    stats.non_empty_block = round.non_empty_block;
    stats.live = round.live_count;
    std::size_t coop = 0;
    for (const game::Strategy s : profile)
      if (s == game::Strategy::Cooperate) ++coop;
    stats.cooperation_fraction =
        static_cast<double>(coop) / static_cast<double>(round.live_count);

    // Rewards for this round, and the induced one-round game. Nodes know
    // their *true* roles when reasoning about deviations.
    const econ::RoleSnapshot& snap = *round.roles_true;
    game::GameConfig game_config{
        .snapshot = snap,
        .scheme = config.scheme,
        .committee_threshold = engine.params().step_threshold};

    if (config.scheme == econ::SchemeKind::StakeProportional) {
      game_config.bi = static_cast<double>(
          econ::FoundationSchedule::reward_for_round(round.round));
      stats.bi_algos = round.non_empty_block
                           ? ledger::to_algos(static_cast<ledger::MicroAlgos>(
                                 game_config.bi))
                           : 0.0;
    } else {
      const ledger::MicroAlgos bi =
          role_based.required_budget(round.round, snap);
      game_config.bi = static_cast<double>(bi);
      game_config.split = role_based.last_split();
      game_config.sync_set = game::online_others(snap);
      stats.bi_algos =
          round.non_empty_block ? ledger::to_algos(bi) : 0.0;
    }
    result.total_reward_algos += stats.bi_algos;
    result.rounds.push_back(stats);

    // Myopic best responses for the next round (one sweep). Each node's
    // response reads only the frozen previous profile, through one shared
    // scanner, and writes its own slot, so the population iteration fans
    // out across the pool.
    const game::AlgorandGame game(game_config);
    const game::DeviationScanner scanner(game, profile);
    game::Profile next = profile;
    // Per-index claiming, not chunks: populations are often smaller than a
    // single chunk.
    engine.executor().for_each_index(profile.size(), [&](std::size_t v) {
      const auto id = static_cast<ledger::NodeId>(v);
      if (!net.live(id)) return;  // departed nodes stay Offline
      next[v] = game::best_response(scanner, id);
    });
    profile = std::move(next);
  }

  std::size_t coop = 0;
  for (const game::Strategy s : profile)
    if (s == game::Strategy::Cooperate) ++coop;
  result.final_cooperation =
      static_cast<double>(coop) / static_cast<double>(net.live_count());
  return result;
}

namespace {

// StrategicPayload's entries, in document order.
enum Series : std::size_t { kCoop, kFinal, kReward };
enum Bank : std::size_t { kTotalReward, kFinalCoop };

const ReductionLayout kLayout{{"coop", "final", "reward"},
                              {"total_reward", "final_coop"}};

}  // namespace

StrategicPayload::StrategicPayload(std::size_t rounds, AggBackend backend)
    : state_(kLayout, backend, rounds) {}

void StrategicPayload::record_round(std::size_t round_index,
                                    double cooperation_fraction,
                                    double final_fraction,
                                    double reward_algos) {
  state_.accumulator(kCoop).record(round_index, cooperation_fraction);
  state_.accumulator(kFinal).record(round_index, final_fraction);
  state_.accumulator(kReward).record(round_index, reward_algos);
}

void StrategicPayload::record_run(double total_reward_algos,
                                  double final_cooperation) {
  state_.bank(kTotalReward).record(total_reward_algos);
  state_.bank(kFinalCoop).record(final_cooperation);
}

StrategicEnsembleResult StrategicPayload::finalize(
    const PartialEnvelope& envelope) const {
  StrategicEnsembleResult out;
  out.cooperation_series = state_.accumulator(kCoop).mean_series();
  out.final_series = state_.accumulator(kFinal).mean_series();
  out.reward_series = state_.accumulator(kReward).mean_series();
  // The historical reduction summed the per-run scalars left to right
  // and divided by the executed run count; ScalarBank::sum replays that
  // exactly under the exact backend.
  const auto executed = static_cast<double>(envelope.runs_executed());
  out.mean_total_reward_algos = state_.bank(kTotalReward).sum() / executed;
  out.mean_final_cooperation = state_.bank(kFinalCoop).sum() / executed;
  out.accumulator_bytes = accumulator_bytes();
  return out;
}

StrategicPayload StrategicPayload::from_json(const util::json::Value& value,
                                             const PartialEnvelope& envelope) {
  return StrategicPayload(ReductionState::from_json(kLayout, value, envelope));
}

util::json::Value strategic_spec_echo(const StrategicEnsembleConfig& config) {
  using util::json::Value;
  Value v = Value::object();
  v.set("experiment", std::string(StrategicPayload::kKind));
  v.set("network", network_spec_echo(config.base.network));
  v.set("rounds", config.base.rounds);
  v.set("scheme", config.base.scheme == econ::SchemeKind::StakeProportional
                      ? "foundation"
                      : "role-based");
  append_cost_echo(v);
  v.set("initial_strategy", static_cast<int>(config.base.initial));
  v.set("churn_leave", config.base.churn.leave_probability);
  v.set("churn_join", config.base.churn.join_probability);
  v.set("churn_min_live", config.base.churn.min_live);
  v.set("runs", config.runs);
  append_agg_echo(v, config.agg);
  return v;
}

StrategicPartial run_strategic_partial(const StrategicEnsembleConfig& config) {
  RS_REQUIRE(config.base.rounds > 0, "at least one round");
  return run_partial<StrategicPayload>(
      {config.runs, config.base.rounds, config.base.network.seed,
       config.threads, config.inner_threads, config.shard},
      config.agg, strategic_spec_echo(config),
      [&config](std::size_t, util::Rng& rng, const RunContext& ctx) {
        StrategicLoopConfig run_config = config.base;
        run_config.network.seed = rng.seed_material();
        // The engine already applied the no-oversubscription policy:
        // ctx.inner_pool is the (possibly null) shared within-run pool.
        return run_strategic_loop(run_config, ctx.inner_pool);
      },
      [](StrategicPayload& payload, const StrategicLoopResult& run) {
        for (std::size_t r = 0; r < run.rounds.size(); ++r) {
          payload.record_round(r, run.rounds[r].cooperation_fraction,
                               run.rounds[r].final_fraction,
                               run.rounds[r].bi_algos);
        }
        payload.record_run(run.total_reward_algos, run.final_cooperation);
      });
}

StrategicEnsembleResult run_strategic_ensemble(
    const StrategicEnsembleConfig& config) {
  return run_strategic_partial(config).finalize();
}

}  // namespace roleshare::sim
