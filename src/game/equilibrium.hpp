// Nash-equilibrium analysis for the Algorand game, plus constructive
// verifiers for the paper's formal results (Lemma 1, Theorems 1–3).
//
// The checks are exhaustive over unilateral deviations: a profile is a NE
// iff no player gains by switching to either alternative strategy. The
// scanner evaluates a deviation in O(1) after an O(n) aggregate pass, so
// full NE checks are O(n).
#pragma once

#include <optional>
#include <string>

#include "game/game_model.hpp"
#include "util/rng.hpp"

namespace roleshare::game {

struct DeviationWitness {
  ledger::NodeId player = 0;
  Strategy from = Strategy::Cooperate;
  Strategy to = Strategy::Defect;
  double payoff_before = 0;
  double payoff_after = 0;
  double gain() const { return payoff_after - payoff_before; }
};

/// Evaluates unilateral deviations cheaply against a fixed base profile.
/// Holds references to the game and the profile: both must outlive the
/// scanner, and the profile must not change while the scanner is used.
class DeviationScanner {
 public:
  DeviationScanner(const AlgorandGame& game, const Profile& profile);

  /// The base profile.
  const Profile& profile() const { return profile_; }

  /// The player's payoff under the base profile.
  double base_payoff(ledger::NodeId player) const;

  /// The player's payoff if they alone switch to `alt`.
  double deviation_payoff(ledger::NodeId player, Strategy alt) const;

 private:
  const AlgorandGame& game_;
  const Profile& profile_;
  AlgorandGame::Aggregates base_;
};

/// First profitable unilateral deviation, if any. `tolerance` guards
/// against floating-point ties (a deviation counts only if it gains more
/// than `tolerance`).
std::optional<DeviationWitness> find_profitable_deviation(
    const AlgorandGame& game, const Profile& profile,
    double tolerance = 1e-9);

/// Report from checking one of the paper's formal results on a concrete
/// game instance.
struct TheoremReport {
  bool holds = false;
  std::string detail;
  std::optional<DeviationWitness> witness;
};

/// Lemma 1: Offline is strictly dominated by Defect. Checked for every
/// player across `samples` random opponent profiles.
TheoremReport verify_lemma1(const AlgorandGame& game, util::Rng& rng,
                            std::size_t samples = 32);

/// Theorem 1: All-D is a Nash equilibrium.
TheoremReport verify_theorem1(const AlgorandGame& game);

/// Theorem 2: under stake-proportional sharing, All-C is NOT a Nash
/// equilibrium (the report carries the deviating witness).
TheoremReport verify_theorem2(const AlgorandGame& game);

/// The Theorem-3 strategy profile: leaders and committee cooperate, Other
/// nodes in the sync set cooperate, remaining Others defect.
Profile theorem3_profile(const AlgorandGame& game);

/// Theorem 3: the profile above is a NE of G_Al+ when B_i exceeds the
/// bounds. The check is purely game-theoretic — it does not trust the
/// bound formulas; it scans every deviation.
TheoremReport verify_theorem3(const AlgorandGame& game);

}  // namespace roleshare::game
