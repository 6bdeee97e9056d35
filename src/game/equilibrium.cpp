#include "game/equilibrium.hpp"

#include <array>

#include "util/require.hpp"

namespace roleshare::game {

namespace {

constexpr std::array<Strategy, 3> kAllStrategies = {
    Strategy::Cooperate, Strategy::Defect, Strategy::Offline};

}  // namespace

DeviationScanner::DeviationScanner(const AlgorandGame& game,
                                   const Profile& profile)
    : game_(game), profile_(profile), base_(game.aggregate(profile)) {}

double DeviationScanner::base_payoff(ledger::NodeId player) const {
  return game_.payoff_of(base_, player, profile_[player]);
}

double DeviationScanner::deviation_payoff(ledger::NodeId player,
                                          Strategy alt) const {
  AlgorandGame::Aggregates agg = base_;
  game_.add_contribution(agg, player, profile_[player], -1);
  game_.add_contribution(agg, player, alt, +1);
  return game_.payoff_of(agg, player, alt);
}

std::optional<DeviationWitness> find_profitable_deviation(
    const AlgorandGame& game, const Profile& profile, double tolerance) {
  RS_REQUIRE(profile.size() == game.player_count(), "profile size mismatch");
  const DeviationScanner scanner(game, profile);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const auto player = static_cast<ledger::NodeId>(i);
    const double before = scanner.base_payoff(player);
    for (const Strategy alt : kAllStrategies) {
      if (alt == profile[i]) continue;
      const double after = scanner.deviation_payoff(player, alt);
      if (after > before + tolerance) {
        return DeviationWitness{player, profile[i], alt, before, after};
      }
    }
  }
  return std::nullopt;
}

TheoremReport verify_lemma1(const AlgorandGame& game, util::Rng& rng,
                            std::size_t samples) {
  const std::size_t n = game.player_count();
  for (std::size_t s = 0; s < samples; ++s) {
    Profile profile(n);
    for (auto& strat : profile) {
      strat = kAllStrategies[static_cast<std::size_t>(
          rng.uniform_int(0, 2))];
    }
    const DeviationScanner scanner(game, profile);
    for (std::size_t i = 0; i < n; ++i) {
      const auto player = static_cast<ledger::NodeId>(i);
      const double u_defect = scanner.deviation_payoff(player, Strategy::Defect);
      const double u_offline =
          scanner.deviation_payoff(player, Strategy::Offline);
      if (!(u_defect >= u_offline)) {
        return TheoremReport{
            false,
            "player " + std::to_string(i) +
                " prefers Offline to Defect in a sampled profile",
            DeviationWitness{player, Strategy::Defect, Strategy::Offline,
                             u_defect, u_offline}};
      }
    }
  }
  return TheoremReport{true,
                       "Defect weakly dominates Offline on all sampled "
                       "profiles (strictly whenever a block is created)",
                       std::nullopt};
}

TheoremReport verify_theorem1(const AlgorandGame& game) {
  const Profile profile = all_defect(game.player_count());
  if (auto witness = find_profitable_deviation(game, profile)) {
    return TheoremReport{false, "All-D admits a profitable deviation",
                         witness};
  }
  return TheoremReport{true, "All-D is a Nash equilibrium", std::nullopt};
}

TheoremReport verify_theorem2(const AlgorandGame& game) {
  RS_REQUIRE(game.config().scheme == econ::SchemeKind::StakeProportional,
             "Theorem 2 concerns the stake-proportional scheme");
  const Profile profile = all_cooperate(game.player_count());
  if (auto witness = find_profitable_deviation(game, profile)) {
    return TheoremReport{
        true, "All-C is not a NE: a player profits by defecting", witness};
  }
  return TheoremReport{false,
                       "All-C unexpectedly is a NE under stake-proportional "
                       "sharing",
                       std::nullopt};
}

Profile theorem3_profile(const AlgorandGame& game) {
  const econ::RoleSnapshot& snap = game.config().snapshot;
  Profile profile(game.player_count(), Strategy::Defect);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const auto v = static_cast<ledger::NodeId>(i);
    if (snap.role(v) != consensus::Role::Other || game.in_sync_set(v))
      profile[i] = Strategy::Cooperate;
  }
  return profile;
}

TheoremReport verify_theorem3(const AlgorandGame& game) {
  RS_REQUIRE(game.config().scheme == econ::SchemeKind::RoleBased,
             "Theorem 3 concerns the role-based scheme");
  const Profile profile = theorem3_profile(game);
  if (auto witness = find_profitable_deviation(game, profile)) {
    return TheoremReport{false,
                         "Theorem-3 profile admits a profitable deviation "
                         "(B_i below the bounds?)",
                         witness};
  }
  return TheoremReport{true, "Theorem-3 profile is a Nash equilibrium",
                       std::nullopt};
}

}  // namespace roleshare::game
