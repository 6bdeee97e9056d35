// Node behaviour types (§III-C): honest (always cooperate), honest-but-
// selfish (cooperate iff reward exceeds cost), malicious (arbitrary),
// faulty (offline), and the policy-driven types the scenario layer
// (sim/scenario_policy.hpp) re-decides every round: adaptive defectors
// (best response to observed rewards) and stake-correlated defectors
// (defection probability falling with stake percentile).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "econ/cost_model.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace roleshare::sim {

enum class BehaviorType : std::uint8_t {
  Honest,         // altruistic: cooperates unconditionally
  Selfish,        // honest-but-selfish: strategic C/D choice
  ScriptedDefect, // selfish node scripted to defect (Fig-3 scenarios)
  Malicious,      // arbitrary C/D (never modelled as forging, §III-C)
  Faulty,         // offline
  AdaptiveDefect, // re-decides each round via game::best_response against
                  // the observed reward (scenario policy layer)
  StakeCorrelatedDefect,  // defects with a probability derived from its
                          // stake percentile (scenario policy layer)
};

/// Number of BehaviorType enumerators. to_string and choose_strategy are
/// statically checked against it so adding an enumerator without updating
/// them fails the build, not a bench run.
inline constexpr std::size_t kBehaviorTypeCount = 7;
static_assert(static_cast<std::size_t>(BehaviorType::StakeCorrelatedDefect) +
                      1 ==
                  kBehaviorTypeCount,
              "kBehaviorTypeCount is out of sync with BehaviorType — update "
              "it together with to_string and choose_strategy");

constexpr std::string_view to_string(BehaviorType b) {
  switch (b) {
    case BehaviorType::Honest:
      return "honest";
    case BehaviorType::Selfish:
      return "selfish";
    case BehaviorType::ScriptedDefect:
      return "scripted-defect";
    case BehaviorType::Malicious:
      return "malicious";
    case BehaviorType::Faulty:
      return "faulty";
    case BehaviorType::AdaptiveDefect:
      return "adaptive-defect";
    case BehaviorType::StakeCorrelatedDefect:
      return "stake-correlated-defect";
  }
  // Out-of-range values (a corrupted or miscast byte) must fail loudly
  // rather than label bench JSON with a placeholder.
  throw std::invalid_argument("to_string: invalid BehaviorType value");
}

/// Inputs a selfish node uses to decide its round strategy: the per-unit-
/// stake reward it observed last round and its election odds.
struct SelfishContext {
  double last_reward_per_stake = 0.0;  // µAlgos per Algo of stake, last round
  double p_leader = 0.0;               // probability of >= 1 proposer sub-user
  double p_committee = 0.0;            // probability of >= 1 committee sub-user
  std::int64_t stake = 0;              // this node's stake (Algos)
  /// StakeCorrelatedDefect only: the node's per-round defection
  /// probability, precomputed by the scenario policy from its stake
  /// percentile.
  double defect_probability = 0.0;
};

/// Sets ctx.p_leader and ctx.p_committee for ctx.stake out of
/// `total_stake` (Algos). P(at least one sub-user selected) is
/// 1 - (1 - tau/W)^stake; the decision rule only needs the cheap upper
/// estimate tau * stake / W, capped at 1, with the paper's committee
/// expectations tau_L = 26 and tau_M = 13,000. A total of 0 leaves both
/// odds untouched.
void set_election_odds(SelfishContext& ctx, std::int64_t total_stake);

/// Picks the round strategy for a behaviour.
/// Selfish rule: cooperate iff expected reward (last observed rate x stake)
/// strictly exceeds expected cooperation cost (fixed cost plus election-
/// probability-weighted role costs) minus what defection would still earn.
/// AdaptiveDefect falls back to the same rule here; the scenario policy
/// layer replaces it with a true game::best_response when it has a round
/// to react to. StakeCorrelatedDefect defects with
/// ctx.defect_probability on the caller-provided stream.
game::Strategy choose_strategy(BehaviorType behavior,
                               const econ::CostModel& costs,
                               const SelfishContext& ctx, util::Rng& rng);

}  // namespace roleshare::sim
