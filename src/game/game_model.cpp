#include "game/game_model.hpp"

#include "util/require.hpp"

namespace roleshare::game {

Profile all_cooperate(std::size_t n) {
  return Profile(n, Strategy::Cooperate);
}

Profile all_defect(std::size_t n) { return Profile(n, Strategy::Defect); }

AlgorandGame::AlgorandGame(GameConfig config) : config_(std::move(config)) {
  RS_REQUIRE(config_.bi >= 0.0, "B_i must be non-negative");
  RS_REQUIRE(config_.committee_threshold > 0.5 &&
                 config_.committee_threshold < 1.0,
             "committee threshold in (0.5, 1)");
  RS_REQUIRE(config_.sync_set.empty() ||
                 config_.sync_set.size() == config_.snapshot.node_count(),
             "sync set size mismatch");
}

bool AlgorandGame::in_sync_set(ledger::NodeId player) const {
  return !config_.sync_set.empty() && config_.sync_set[player];
}

AlgorandGame::Aggregates AlgorandGame::aggregate(
    const Profile& profile) const {
  RS_REQUIRE(profile.size() == player_count(), "profile size mismatch");
  Aggregates agg;
  // Whole-Algo stakes sum exactly in a double, so the snapshot's integer
  // sum is the per-player sum.
  agg.committee_total_stake = static_cast<double>(
      config_.snapshot.stake_of(consensus::Role::Committee));
  for (std::size_t i = 0; i < profile.size(); ++i)
    add_contribution(agg, static_cast<ledger::NodeId>(i), profile[i], +1);
  return agg;
}

void AlgorandGame::add_contribution(Aggregates& agg, ledger::NodeId player,
                                    Strategy strategy, int sign) const {
  const double stake =
      sign * static_cast<double>(config_.snapshot.stake(player));
  const auto bump = [sign](std::size_t& counter) {
    RS_ENSURE(sign > 0 || counter > 0, "aggregate counter underflow");
    counter = sign > 0 ? counter + 1 : counter - 1;
  };

  if (strategy == Strategy::Offline) {
    if (in_sync_set(player)) bump(agg.sync_defectors);
    return;
  }
  agg.online_stake += stake;

  if (strategy == Strategy::Cooperate) {
    switch (config_.snapshot.role(player)) {
      case consensus::Role::Leader:
        agg.coop_leader_stake += stake;
        bump(agg.coop_leader_count);
        break;
      case consensus::Role::Committee:
        agg.coop_committee_stake += stake;
        break;
      case consensus::Role::Other:
        agg.gamma_pool_stake += stake;
        break;
    }
  } else {
    // Online defector: hides its role, appears as a plain online node.
    agg.gamma_pool_stake += stake;
    if (in_sync_set(player)) bump(agg.sync_defectors);
  }
}

bool AlgorandGame::block_created(const Aggregates& agg) const {
  if (agg.coop_leader_count == 0) return false;
  if (agg.committee_total_stake > 0.0 &&
      agg.coop_committee_stake <
          config_.committee_threshold * agg.committee_total_stake)
    return false;
  if (agg.sync_defectors > 0) return false;
  return true;
}

bool AlgorandGame::block_created(const Profile& profile) const {
  return block_created(aggregate(profile));
}

double AlgorandGame::reward_of(const Aggregates& agg, ledger::NodeId player,
                               Strategy strategy) const {
  if (strategy == Strategy::Offline) return 0.0;
  const econ::RoleSnapshot& snap = config_.snapshot;
  const double stake = static_cast<double>(snap.stake(player));
  if (stake <= 0.0) return 0.0;

  // Eq (3): r_i = B_i / S_N for every online node, role-blind — one pot
  // holding the whole budget.
  if (config_.scheme == econ::SchemeKind::StakeProportional)
    return econ::pot_share(1.0, config_.bi, stake, agg.online_stake);

  // Role-based (Eq 5): cooperators draw from their role's pot; Others and
  // online defectors of any role draw from the γ pot.
  const econ::RewardSplit& split = config_.split;
  if (strategy == Strategy::Cooperate) {
    switch (snap.role(player)) {
      case consensus::Role::Leader:
        return econ::pot_share(split.alpha, config_.bi, stake,
                               agg.coop_leader_stake);
      case consensus::Role::Committee:
        return econ::pot_share(split.beta, config_.bi, stake,
                               agg.coop_committee_stake);
      case consensus::Role::Other:
        break;
    }
  }
  return econ::pot_share(split.gamma(), config_.bi, stake,
                         agg.gamma_pool_stake);
}

double AlgorandGame::payoff_of(const Aggregates& agg, ledger::NodeId player,
                               Strategy strategy) const {
  double cost = 0.0;
  switch (strategy) {
    case Strategy::Cooperate:
      cost = config_.costs.cooperation_cost(config_.snapshot.role(player));
      break;
    case Strategy::Defect:
    case Strategy::Offline:
      cost = config_.costs.defection_cost();
      break;
  }
  const double reward =
      block_created(agg) ? reward_of(agg, player, strategy) : 0.0;
  return reward - cost;
}

double AlgorandGame::payoff(const Profile& profile,
                            ledger::NodeId player) const {
  RS_REQUIRE(player < player_count(), "player id out of range");
  const Aggregates agg = aggregate(profile);
  return payoff_of(agg, player, profile[player]);
}

std::vector<double> AlgorandGame::payoffs(const Profile& profile) const {
  const Aggregates agg = aggregate(profile);
  std::vector<double> out(player_count());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = payoff_of(agg, static_cast<ledger::NodeId>(i), profile[i]);
  return out;
}

std::vector<bool> online_others(const econ::RoleSnapshot& snapshot) {
  std::vector<bool> sync_set(snapshot.node_count());
  for (std::size_t v = 0; v < sync_set.size(); ++v) {
    const auto id = static_cast<ledger::NodeId>(v);
    sync_set[v] =
        snapshot.role(id) == consensus::Role::Other && snapshot.stake(id) > 0;
  }
  return sync_set;
}

}  // namespace roleshare::game
