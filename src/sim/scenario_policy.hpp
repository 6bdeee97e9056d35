// Scenario-diversity policy layer: makes node behaviour *reactive*
// instead of scripted, so the Fig-3 machinery can answer "what if nodes
// respond to incentives / correlate with stake / come and go?" without
// new experiment plumbing.
//
// A ScenarioPolicy sits between the run setup and the round engine. Once
// per round, before run_round(), it
//   1. applies the churn schedule (nodes leave/join on deterministic
//      per-(round, node) RNG streams — the network's live mask),
//   2. re-decides every live node's strategy from its behaviour type:
//      - AdaptiveDefect candidates play game::best_response against the
//        previous round's observed one-round game (true roles, the
//        Foundation's stake-proportional reward) — the §III-C unraveling
//        driven by actual payoffs instead of a scripted rate;
//      - StakeCorrelatedDefect nodes defect with a probability
//        interpolated over their stake percentile (the paper's claim that
//        large stakeholders have the most to lose from a failed block);
//      - Honest, ScriptedDefect and Faulty nodes keep their fixed
//        §III-C strategies.
//
// Every draw comes from the per-(round, node) stream
// scenario_policy_root(seed).split(purpose).split(round).split(node), so
// the layer is bit-identical for every threads / inner_threads setting —
// it slots into existing run_experiment run bodies unchanged
// (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "game/strategy.hpp"
#include "sim/network.hpp"
#include "sim/round_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::sim {

enum class PolicyKind : std::uint8_t {
  Scripted,               // PR-1 semantics: behaviours as configured, no
                          // per-round re-decision beyond the network's own
  AdaptiveDefect,         // defect candidates best-respond to rewards
  StakeCorrelatedDefect,  // P(defect) interpolated over stake percentile
};

inline constexpr std::size_t kPolicyKindCount = 3;

constexpr std::string_view to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::Scripted:
      return "scripted";
    case PolicyKind::AdaptiveDefect:
      return "adaptive";
    case PolicyKind::StakeCorrelatedDefect:
      return "stake-correlated";
  }
  throw std::invalid_argument("to_string: invalid PolicyKind value");
}
static_assert(static_cast<std::size_t>(PolicyKind::StakeCorrelatedDefect) +
                      1 ==
                  kPolicyKindCount,
              "kPolicyKindCount is out of sync with PolicyKind");

/// Join/leave schedule applied before every round. All draws come from
/// per-(round, node) streams, so a schedule is one deterministic function
/// of (seed, round, node) — independent of thread counts and of the order
/// other components consume randomness in.
struct ChurnSchedule {
  /// Probability that a live node leaves before the round.
  double leave_probability = 0.0;
  /// Probability that a departed node rejoins before the round.
  double join_probability = 0.0;
  /// Live-population floor: leaves that would drop the network below this
  /// are suppressed (node-id order decides which candidate leaves stay).
  /// The round engine requires live stake, so the floor must be >= 1.
  std::size_t min_live = 4;

  bool enabled() const {
    return leave_probability > 0.0 || join_probability > 0.0;
  }
};

struct ScenarioPolicyConfig {
  PolicyKind kind = PolicyKind::Scripted;
  /// StakeCorrelatedDefect: P(defect) at the bottom / top of the stake
  /// percentile ranking, interpolated linearly in between. The paper's
  /// incentive claim corresponds to defect_at_top < defect_at_bottom.
  double defect_at_bottom = 0.0;
  double defect_at_top = 0.0;
  ChurnSchedule churn{};

  /// Whether the policy layer changes anything relative to the frozen
  /// PR-1 run setup. When false, consumers skip the layer entirely and
  /// stay bit-identical to their pre-policy output.
  bool enabled() const {
    return kind != PolicyKind::Scripted || churn.enabled();
  }
};

/// Root of the policy layer's RNG streams for a network seeded with
/// `network_seed`: Rng(seed).split("scenario-policy"). Independent of the
/// network's own master streams by construction (DESIGN.md §4).
util::Rng scenario_policy_root(std::uint64_t network_seed);

/// Applies one round of the churn schedule to `net`'s live mask and
/// returns the live count afterwards. Draws one Bernoulli per node from
/// policy_root.split("churn").split(round_index).split(node); the
/// min_live floor is enforced in node-id order. Exposed separately so the
/// strategic loop can churn without adopting the full policy layer.
std::size_t apply_churn(Network& net, const ChurnSchedule& schedule,
                        const util::Rng& policy_root,
                        std::size_t round_index);

class ScenarioPolicy {
 public:
  /// Binds the policy to `net` (borrowed; must outlive the policy) and
  /// re-labels behaviours for the chosen kind: AdaptiveDefect converts
  /// the network's scripted defectors into adaptive ones (same cohort,
  /// reactive decision), StakeCorrelatedDefect converts the honest
  /// residual and precomputes stake percentiles. `committee_threshold` is
  /// the vote threshold T of the one-round game adaptive candidates
  /// best-respond in: the ConsensusParams::step_threshold the round
  /// engine runs under, so the policy reasons about the same game.
  ScenarioPolicy(const ScenarioPolicyConfig& config, Network& net,
                 double committee_threshold);

  const ScenarioPolicyConfig& config() const { return config_; }

  /// Prepares round `round_index` (0-based): applies churn, then
  /// re-decides every node's strategy from its behaviour, the previous
  /// round's result (`last`, nullptr before the first round) and
  /// per-(round, node) streams, and installs the profile on the network.
  /// Departed nodes play Offline. Bit-identical for every executor
  /// width. Returns the live count the round will run with.
  std::size_t begin_round(std::size_t round_index, const RoundResult* last,
                          const util::InnerExecutor& exec);

 private:
  double defect_probability(std::size_t v) const;

  ScenarioPolicyConfig config_;
  Network* net_;
  double committee_threshold_;
  util::Rng policy_root_;
  std::vector<double> stake_percentile_;  // per node, in [0, 1]
  /// Strategies installed for the upcoming round; the "previous profile"
  /// adaptive nodes best-respond against.
  game::Profile profile_;
};

}  // namespace roleshare::sim
