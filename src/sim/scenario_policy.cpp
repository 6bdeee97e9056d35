#include "sim/scenario_policy.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "econ/foundation_schedule.hpp"
#include "game/best_response.hpp"
#include "game/game_model.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace {

void require_probability(double p, const char* what) {
  RS_REQUIRE(p >= 0.0 && p <= 1.0, what);
}

}  // namespace

util::Rng scenario_policy_root(std::uint64_t network_seed) {
  return util::Rng(network_seed).split("scenario-policy");
}

std::size_t apply_churn(Network& net, const ChurnSchedule& schedule,
                        const util::Rng& policy_root,
                        std::size_t round_index) {
  require_probability(schedule.leave_probability, "leave probability");
  require_probability(schedule.join_probability, "join probability");
  RS_REQUIRE(schedule.min_live >= 1,
             "churn floor must keep at least one live node");
  const util::Rng round_root =
      policy_root.split("churn").split(round_index);
  const std::size_t n = net.node_count();
  for (std::size_t v = 0; v < n; ++v) {
    util::Rng rng = round_root.split(v);
    const auto id = static_cast<ledger::NodeId>(v);
    if (net.live(id)) {
      // The floor gate reads the running live count, so which candidate
      // leaves are suppressed depends on node-id order — fixed, hence
      // still deterministic.
      if (net.live_count() > schedule.min_live &&
          rng.bernoulli(schedule.leave_probability))
        net.set_live(id, false);
    } else if (rng.bernoulli(schedule.join_probability)) {
      net.set_live(id, true);
    }
  }
  return net.live_count();
}

ScenarioPolicy::ScenarioPolicy(const ScenarioPolicyConfig& config,
                               Network& net, double committee_threshold)
    : config_(config),
      net_(&net),
      committee_threshold_(committee_threshold),
      policy_root_(scenario_policy_root(net.config().seed)),
      profile_(net.strategies()) {
  require_probability(config_.defect_at_bottom,
                      "stake-correlated defection probability (bottom)");
  require_probability(config_.defect_at_top,
                      "stake-correlated defection probability (top)");
  const std::size_t n = net.node_count();
  switch (config_.kind) {
    case PolicyKind::Scripted:
      break;
    case PolicyKind::AdaptiveDefect:
      // The scripted defectors become adaptive: the Fig-3 cohort selection
      // is reused unchanged, but each member now decides per round via a
      // best response instead of a script.
      for (std::size_t v = 0; v < n; ++v) {
        const auto id = static_cast<ledger::NodeId>(v);
        if (net.behavior(id) == BehaviorType::ScriptedDefect)
          net.set_behavior(id, BehaviorType::AdaptiveDefect);
      }
      break;
    case PolicyKind::StakeCorrelatedDefect: {
      // Every honest node becomes a stake-correlated defector;
      // percentiles are ranks over the full population's initial stakes
      // (ties broken by node id, so the ranking is deterministic).
      for (std::size_t v = 0; v < n; ++v) {
        const auto id = static_cast<ledger::NodeId>(v);
        if (net.behavior(id) == BehaviorType::Honest)
          net.set_behavior(id, BehaviorType::StakeCorrelatedDefect);
      }
      const std::vector<std::int64_t> stakes = net.accounts().stakes();
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return stakes[a] < stakes[b];
                       });
      stake_percentile_.assign(n, 0.0);
      for (std::size_t rank = 0; rank < n; ++rank) {
        stake_percentile_[order[rank]] =
            n > 1 ? static_cast<double>(rank) / static_cast<double>(n - 1)
                  : 1.0;
      }
      break;
    }
  }
}

double ScenarioPolicy::defect_probability(std::size_t v) const {
  if (config_.kind != PolicyKind::StakeCorrelatedDefect) return 0.0;
  const double pct = stake_percentile_[v];
  return config_.defect_at_bottom +
         (config_.defect_at_top - config_.defect_at_bottom) * pct;
}

std::size_t ScenarioPolicy::begin_round(std::size_t round_index,
                                        const RoundResult* last,
                                        const util::InnerExecutor& exec) {
  Network& net = *net_;
  const std::size_t n = net.node_count();
  if (config_.churn.enabled())
    apply_churn(net, config_.churn, policy_root_, round_index);

  // Adaptive candidates play the stake-proportional game G_Al the last
  // round induced (it ignores the split), at the Table-III reward.
  std::optional<game::AlgorandGame> game;
  if (config_.kind == PolicyKind::AdaptiveDefect && last != nullptr &&
      last->roles_true.has_value()) {
    game.emplace(game::GameConfig{
        .snapshot = *last->roles_true,
        .bi = static_cast<double>(
            econ::FoundationSchedule::reward_for_round(last->round)),
        .committee_threshold = committee_threshold_});
  }

  // Per-node strategy decisions. Every draw comes from the independent
  // stream strategy_root.split(node), and adaptive best responses read
  // only the frozen previous profile and write their own slot — so the
  // executor's scheduling cannot change a single decision.
  const util::Rng strategy_root =
      policy_root_.split("strategies").split(round_index);
  // One scanner over the frozen previous profile serves every adaptive
  // best response of the sweep.
  std::optional<game::DeviationScanner> scanner;
  if (game) scanner.emplace(*game, profile_);
  game::Profile next(n, game::Strategy::Offline);
  exec.for_each_chunk(n, [&](std::size_t, std::size_t begin,
                             std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      const auto id = static_cast<ledger::NodeId>(v);
      if (!net.live(id)) continue;  // departed nodes stay Offline
      const BehaviorType behavior = net.behavior(id);
      if (scanner && behavior == BehaviorType::AdaptiveDefect) {
        // The best response in the game the last round induced; before
        // there is one, choose_strategy cooperates.
        next[v] = game::best_response(*scanner, id);
        continue;
      }
      util::Rng rng = strategy_root.split(v);
      next[v] = choose_strategy(behavior, defect_probability(v), rng);
    }
  });
  profile_ = std::move(next);
  net.set_strategies(profile_);
  return net.live_count();
}

}  // namespace roleshare::sim
