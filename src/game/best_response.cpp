#include "game/best_response.hpp"

#include <array>

#include "util/require.hpp"

namespace roleshare::game {

Strategy best_response(const DeviationScanner& scanner, ledger::NodeId player,
                       double tolerance) {
  const Profile& profile = scanner.profile();
  RS_REQUIRE(player < profile.size(), "player id out of range");
  Strategy best = profile[player];
  double best_payoff = scanner.base_payoff(player);
  // Preference order on ties: keep current, then C, D, O.
  constexpr std::array<Strategy, 3> order = {
      Strategy::Cooperate, Strategy::Defect, Strategy::Offline};
  for (const Strategy alt : order) {
    if (alt == profile[player]) continue;
    const double u = scanner.deviation_payoff(player, alt);
    if (u > best_payoff + tolerance) {
      best = alt;
      best_payoff = u;
    }
  }
  return best;
}

DynamicsResult best_response_dynamics(const AlgorandGame& game,
                                      Profile start, std::size_t max_sweeps,
                                      double tolerance) {
  RS_REQUIRE(start.size() == game.player_count(), "profile size mismatch");
  DynamicsResult result;
  result.profile = std::move(start);
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    ++result.sweeps;
    bool moved = false;
    for (std::size_t i = 0; i < result.profile.size(); ++i) {
      const auto player = static_cast<ledger::NodeId>(i);
      // Each move changes the profile, so each player gets a new scanner.
      const DeviationScanner scanner(game, result.profile);
      const Strategy br = best_response(scanner, player, tolerance);
      if (br != result.profile[i]) {
        result.profile[i] = br;
        moved = true;
        ++result.total_moves;
      }
    }
    if (!moved) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace roleshare::game
