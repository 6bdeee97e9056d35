// Node behaviour types (§III-C): honest (always cooperate), scripted
// defectors, faulty (offline), and the policy-driven types the scenario
// layer (sim/scenario_policy.hpp) re-decides every round: adaptive
// defectors (game::best_response to the observed one-round game, the one
// rational rule) and stake-correlated defectors (defection probability
// falling with stake percentile).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace roleshare::sim {

enum class BehaviorType : std::uint8_t {
  Honest,         // altruistic: cooperates unconditionally
  ScriptedDefect, // selfish node scripted to defect (Fig-3 scenarios)
  Faulty,         // offline
  AdaptiveDefect, // re-decides each round via game::best_response against
                  // the observed reward (scenario policy layer)
  StakeCorrelatedDefect,  // defects with a probability derived from its
                          // stake percentile (scenario policy layer)
};

/// Number of BehaviorType enumerators. to_string and choose_strategy are
/// statically checked against it so adding an enumerator without updating
/// them fails the build, not a bench run.
inline constexpr std::size_t kBehaviorTypeCount = 5;
static_assert(static_cast<std::size_t>(BehaviorType::StakeCorrelatedDefect) +
                      1 ==
                  kBehaviorTypeCount,
              "kBehaviorTypeCount is out of sync with BehaviorType — update "
              "it together with to_string and choose_strategy");

constexpr std::string_view to_string(BehaviorType b) {
  switch (b) {
    case BehaviorType::Honest:
      return "honest";
    case BehaviorType::ScriptedDefect:
      return "scripted-defect";
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

/// Picks the round strategy for a behaviour. An AdaptiveDefect node
/// cooperates here: the scenario policy replaces its choice with a
/// game::best_response once it has a round to react to.
/// StakeCorrelatedDefect defects with `defect_probability` on the
/// caller-provided stream; no other behaviour draws.
game::Strategy choose_strategy(BehaviorType behavior,
                               double defect_probability, util::Rng& rng);

}  // namespace roleshare::sim
