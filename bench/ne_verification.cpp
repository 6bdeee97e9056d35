// E8 — Equilibrium structure (Lemmas 1-2, Theorems 1-3) verified
// constructively on sampled game instances: exhaustive unilateral-deviation
// scans, not trust in the closed-form bounds.
#include <cstdio>

#include "bench_util.hpp"
#include "econ/optimizer.hpp"
#include "game/best_response.hpp"
#include "game/equilibrium.hpp"
#include "sim/experiment_runner.hpp"
#include "util/distributions.hpp"

using namespace roleshare;

namespace {

/// Per-game verification verdicts, reduced by summation across games.
struct GameVerdicts {
  bool lemma1 = false;
  bool thm1 = false;
  bool thm2 = false;
  bool feasible = false;
  bool thm3 = false;
  bool thm3_below_fails = false;
  bool brd_fixpoint = false;
};

// Samples a role snapshot: a few leaders/committee members, many others.
econ::RoleSnapshot sample_snapshot(util::Rng& rng, std::size_t n) {
  std::vector<consensus::Role> roles(n, consensus::Role::Other);
  std::vector<std::int64_t> stakes =
      util::StakeDistribution::uniform(1, 50).sample_many(rng, n);
  const std::size_t leaders = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const std::size_t committee =
      5 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  const auto picks = rng.sample_without_replacement(n, leaders + committee);
  for (std::size_t i = 0; i < picks.size(); ++i)
    roles[picks[i]] =
        i < leaders ? consensus::Role::Leader : consensus::Role::Committee;
  return econ::RoleSnapshot(std::move(roles), std::move(stakes));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t games = bench::arg_size(argc, argv, "games", 25);
  const std::size_t players = bench::arg_size(argc, argv, "players", 60);
  const std::size_t threads = bench::arg_threads(argc, argv);

  bench::print_header("NE verification",
                      "Lemma 1, Theorems 1-3 on sampled games");
  std::printf("games=%zu players=%zu threads=%zu stakes=U(1,50)\n\n", games,
              players, threads);

  const econ::CostModel costs;
  std::size_t lemma1_ok = 0, thm1_ok = 0, thm2_ok = 0, thm3_ok = 0,
              thm3_below_fails = 0, brd_fixpoint = 0, feasible_games = 0;
  const bench::WallTimer timer;

  // Each sampled game is an independent "run" of the shared engine: game g
  // draws from root.split(g), so the set of verified instances does not
  // depend on thread count.
  const sim::ExperimentSpec spec{games, 1, 99, threads};
  sim::run_and_reduce(
      spec,
      [&](std::size_t, util::Rng& rng, const sim::RunContext&) {
        GameVerdicts verdicts;
        econ::RoleSnapshot snap = sample_snapshot(rng, players);

        // --- G_Al (stake-proportional), Theorems 1-2 + Lemma 1.
        const game::AlgorandGame game_al(
            game::GameConfig{.snapshot = snap, .costs = costs, .bi = 20e6});
        util::Rng lemma_rng = rng.split("lemma1");
        verdicts.lemma1 = game::verify_lemma1(game_al, lemma_rng, 8).holds;
        verdicts.thm1 = game::verify_theorem1(game_al).holds;
        verdicts.thm2 = game::verify_theorem2(game_al).holds;

        // --- G_Al+ (role-based), Theorem 3 with Y = all online Others
        // (every Other: stakes are at least 1).
        const econ::RewardOptimizer optimizer;
        const econ::OptimizerResult opt = optimizer.optimize(snap, costs);
        if (!opt.feasible) return verdicts;
        verdicts.feasible = true;

        const game::GameConfig galplus{
            .snapshot = snap,
            .costs = costs,
            .scheme = econ::SchemeKind::RoleBased,
            .bi = opt.min_bi,
            .split = opt.split,
            .sync_set = game::online_others(snap)};
        const game::AlgorandGame game_plus(galplus);
        verdicts.thm3 = game::verify_theorem3(game_plus).holds;

        game::GameConfig starved = galplus;
        starved.bi = opt.min_bi * 0.2;
        const game::AlgorandGame game_starved(starved);
        verdicts.thm3_below_fails =
            !game::verify_theorem3(game_starved).holds;

        // Best-response dynamics from the Theorem-3 profile: must be a
        // fixpoint under the optimizer's B_i.
        const game::Profile start = game::theorem3_profile(game_plus);
        const game::DynamicsResult dyn =
            game::best_response_dynamics(game_plus, start, 10);
        verdicts.brd_fixpoint = dyn.converged && dyn.total_moves == 0;
        return verdicts;
      },
      [&](std::size_t, GameVerdicts v) {
        lemma1_ok += v.lemma1 ? 1 : 0;
        thm1_ok += v.thm1 ? 1 : 0;
        thm2_ok += v.thm2 ? 1 : 0;
        feasible_games += v.feasible ? 1 : 0;
        thm3_ok += v.thm3 ? 1 : 0;
        thm3_below_fails += v.thm3_below_fails ? 1 : 0;
        brd_fixpoint += v.brd_fixpoint ? 1 : 0;
      });

  std::printf("%-58s %zu/%zu\n", "Lemma 1 (Offline dominated by Defect):",
              lemma1_ok, games);
  std::printf("%-58s %zu/%zu\n", "Theorem 1 (All-D is a NE of G_Al):",
              thm1_ok, games);
  std::printf("%-58s %zu/%zu\n", "Theorem 2 (All-C is NOT a NE of G_Al):",
              thm2_ok, games);
  std::printf("%-58s %zu/%zu\n",
              "Theorem 3 (profile is NE at Algorithm-1 B_i):", thm3_ok,
              feasible_games);
  std::printf("%-58s %zu/%zu\n",
              "Theorem 3 fails when B_i starved to 20%:", thm3_below_fails,
              feasible_games);
  std::printf("%-58s %zu/%zu\n",
              "Theorem-3 profile is a best-response fixpoint:", brd_fixpoint,
              feasible_games);
  if (feasible_games < games)
    std::printf("(Algorithm 1 infeasible on %zu/%zu sampled games)\n",
                games - feasible_games, games);

  bench::emit_json("ne_verification",
                   {{"games", static_cast<double>(games)},
                    {"players", static_cast<double>(players)},
                    {"threads", static_cast<double>(threads)},
                    {"feasible_games", static_cast<double>(feasible_games)},
                    {"thm3_ok", static_cast<double>(thm3_ok)},
                    {"wall_ms", timer.elapsed_ms()}});
  return 0;
}
