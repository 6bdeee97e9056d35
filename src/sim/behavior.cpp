#include "sim/behavior.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace roleshare::sim {

namespace {

/// The honest-but-selfish decision rule (§III-C): cooperate iff the reward
/// at stake strictly exceeds the expected extra cost of cooperating.
game::Strategy selfish_rule(const econ::CostModel& costs,
                            const SelfishContext& ctx) {
  // Expected extra cost of cooperating over defecting this round.
  const double expected_cost =
      (costs.other_cost() - costs.defection_cost()) +
      ctx.p_leader * (costs.leader_cost() - costs.other_cost()) +
      ctx.p_committee * (costs.committee_cost() - costs.other_cost());
  // Under no-punishment schemes defection keeps the stake reward, so a
  // purely myopic node would always defect; but defection risks the
  // block (and thus the reward) failing. The node cooperates when the
  // reward at stake exceeds the cost of cooperating.
  const double reward_at_stake =
      ctx.last_reward_per_stake * static_cast<double>(ctx.stake);
  return reward_at_stake > expected_cost ? game::Strategy::Cooperate
                                         : game::Strategy::Defect;
}

}  // namespace

void set_election_odds(SelfishContext& ctx, std::int64_t total_stake) {
  if (total_stake <= 0) return;
  const double w = static_cast<double>(total_stake);
  ctx.p_leader = std::min(1.0, 26.0 * static_cast<double>(ctx.stake) / w);
  ctx.p_committee =
      std::min(1.0, 13'000.0 * static_cast<double>(ctx.stake) / w);
}

game::Strategy choose_strategy(BehaviorType behavior,
                               const econ::CostModel& costs,
                               const SelfishContext& ctx, util::Rng& rng) {
  switch (behavior) {
    case BehaviorType::Honest:
      return game::Strategy::Cooperate;
    case BehaviorType::ScriptedDefect:
      return game::Strategy::Defect;
    case BehaviorType::Faulty:
      return game::Strategy::Offline;
    case BehaviorType::Malicious:
      return rng.bernoulli(0.5) ? game::Strategy::Cooperate
                                : game::Strategy::Defect;
    case BehaviorType::Selfish:
      return selfish_rule(costs, ctx);
    case BehaviorType::AdaptiveDefect:
      // Standalone fallback only — ScenarioPolicy::begin_round overrides
      // this with a game::best_response once a round has been observed.
      return selfish_rule(costs, ctx);
    case BehaviorType::StakeCorrelatedDefect:
      RS_REQUIRE(ctx.defect_probability >= 0.0 &&
                     ctx.defect_probability <= 1.0,
                 "stake-correlated defection probability in [0, 1]");
      return rng.bernoulli(ctx.defect_probability) ? game::Strategy::Defect
                                                   : game::Strategy::Cooperate;
  }
  // Unreachable for valid enumerators; fail loudly on a corrupted value.
  util::ensure_failed("valid BehaviorType", __FILE__, __LINE__,
                      "choose_strategy: invalid BehaviorType value");
}

}  // namespace roleshare::sim
