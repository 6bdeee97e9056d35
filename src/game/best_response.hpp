// Best-response machinery: single-player best responses and asynchronous
// best-response dynamics. Used to study where selfish play converges from
// arbitrary starting profiles (All-D is always absorbing; with the
// role-based scheme and sufficient B_i the Theorem-3 profile is too).
#pragma once

#include "game/equilibrium.hpp"

namespace roleshare::game {

/// The strategy maximizing `player`'s payoff holding everyone else fixed
/// at the scanner's base profile. Ties break toward the current strategy,
/// then C > D > O. A sweep over one frozen profile shares one scanner, so
/// each response costs O(1) after the scanner's O(n) pass.
Strategy best_response(const DeviationScanner& scanner, ledger::NodeId player,
                       double tolerance = 1e-9);

struct DynamicsResult {
  Profile profile;             // final profile
  std::size_t sweeps = 0;      // full passes over the population
  bool converged = false;      // no player moved in the last sweep
  std::size_t total_moves = 0; // strategy switches along the way
};

/// Repeated sweeps of sequential best responses (players in id order)
/// until a fixpoint or `max_sweeps`. A fixpoint is a Nash equilibrium.
DynamicsResult best_response_dynamics(const AlgorandGame& game,
                                      Profile start,
                                      std::size_t max_sweeps = 100,
                                      double tolerance = 1e-9);

}  // namespace roleshare::game
