#include "sim/behavior.hpp"

#include "util/require.hpp"

namespace roleshare::sim {

game::Strategy choose_strategy(BehaviorType behavior,
                               double defect_probability, util::Rng& rng) {
  switch (behavior) {
    case BehaviorType::Honest:
    case BehaviorType::AdaptiveDefect:
      return game::Strategy::Cooperate;
    case BehaviorType::ScriptedDefect:
      return game::Strategy::Defect;
    case BehaviorType::Faulty:
      return game::Strategy::Offline;
    case BehaviorType::StakeCorrelatedDefect:
      RS_REQUIRE(defect_probability >= 0.0 && defect_probability <= 1.0,
                 "stake-correlated defection probability in [0, 1]");
      return rng.bernoulli(defect_probability) ? game::Strategy::Defect
                                               : game::Strategy::Cooperate;
  }
  // Unreachable for valid enumerators; fail loudly on a corrupted value.
  util::ensure_failed("valid BehaviorType", __FILE__, __LINE__,
                      "choose_strategy: invalid BehaviorType value");
}

}  // namespace roleshare::sim
