// The one-round Algorand game.
//
// G_Al  — rewards shared stake-proportionally (Eq 3/4), the Foundation
//         baseline.
// G_Al+ — rewards shared by role with split (α, β, γ) (Eq 5).
//
// Payoff rules (§III-C, §IV):
//  * A cooperator pays its role cost c_L / c_M / c_K; a defector stays
//    online and pays only c_so; an offline player pays c_so and can never
//    earn a reward (Lemma 1 setup).
//  * Rewards are paid only if the round produces a block. A block requires
//    at least one cooperating leader, cooperating committee stake above the
//    step threshold T of the total committee stake, and — the Theorem-3
//    liveness condition — every Other node of the strong-synchrony set Y
//    cooperating.
//  * There is no punishment: online defectors are indistinguishable from
//    role-less nodes, so they are paid from the stake pool they appear to
//    belong to. Under G_Al+ a defecting leader/committee member hides its
//    role and is paid from the γ pot with its stake joining S_K — exactly
//    the γB_i/(S_K + s_j) deviation payoff of Lemma 2.
#pragma once

#include <optional>
#include <vector>

#include "econ/bi_bounds.hpp"
#include "econ/cost_model.hpp"
#include "econ/reward_scheme.hpp"
#include "econ/role_snapshot.hpp"
#include "game/strategy.hpp"

namespace roleshare::game {

struct GameConfig {
  econ::RoleSnapshot snapshot;
  econ::CostModel costs{};
  econ::SchemeKind scheme = econ::SchemeKind::StakeProportional;
  /// Reward B_i distributed when a block is created, µAlgos.
  double bi = 0;
  /// Role split for G_Al+ (ignored for G_Al).
  econ::RewardSplit split{0.02, 0.03};
  /// sync_set[v] — v belongs to the strong-synchrony set Y. Only
  /// meaningful for Other nodes; empty means Y = ∅ (no Other node is
  /// pivotal for liveness, the G_Al baseline analysis). The `{}` lets
  /// designated initializers omit it without a -Wextra warning.
  std::vector<bool> sync_set{};
  /// Committee vote threshold T used in the block-success predicate.
  double committee_threshold = 0.685;
};

class AlgorandGame {
 public:
  explicit AlgorandGame(GameConfig config);

  const GameConfig& config() const { return config_; }
  std::size_t player_count() const { return config_.snapshot.node_count(); }

  /// Whether the profile produces a block this round.
  bool block_created(const Profile& profile) const;

  /// Payoff of one player under the profile, µAlgos.
  double payoff(const Profile& profile, ledger::NodeId player) const;

  /// Payoffs of all players (single O(n) pass).
  std::vector<double> payoffs(const Profile& profile) const;

  /// Whether `player` belongs to the strong-synchrony set Y.
  bool in_sync_set(ledger::NodeId player) const;

 private:
  /// Aggregates the payoff computation depends on; O(n) to build,
  /// O(1) to adjust for a unilateral deviation (DeviationScanner).
  struct Aggregates {
    double coop_leader_stake = 0;     // effective S_L
    std::size_t coop_leader_count = 0;
    double coop_committee_stake = 0;  // effective S_M
    double committee_total_stake = 0;
    double gamma_pool_stake = 0;      // effective S_K (others + hidden defectors)
    double online_stake = 0;          // S_N over online players (C or D)
    std::size_t sync_defectors = 0;   // Y members not cooperating
  };

  friend class DeviationScanner;

  Aggregates aggregate(const Profile& profile) const;
  /// Adds (sign = +1) or removes (sign = -1) one player's contribution
  /// to the strategy-dependent aggregates.
  void add_contribution(Aggregates& agg, ledger::NodeId player,
                        Strategy strategy, int sign) const;
  bool block_created(const Aggregates& agg) const;
  double reward_of(const Aggregates& agg, ledger::NodeId player,
                   Strategy strategy) const;
  double payoff_of(const Aggregates& agg, ledger::NodeId player,
                   Strategy strategy) const;

  GameConfig config_;
};

/// The Theorem-3 sync set Y under the conservative liveness assumption
/// the bounds were derived under: every online Other (an Other node with
/// stake) is needed to relay.
std::vector<bool> online_others(const econ::RoleSnapshot& snapshot);

}  // namespace roleshare::game
