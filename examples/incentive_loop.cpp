// Incentive loop: the paper's thesis in one experiment. Networks of fully
// rational nodes play myopic best responses round after round:
//  * under the Foundation's stake-proportional rewards, cooperation
//    unravels (Theorem 2) and consensus collapses with it (Fig 3);
//  * under the role-based scheme with Algorithm-1 rewards, cooperation is
//    self-enforcing (Theorem 3) — at a fraction of the cost.
//
//   $ ./incentive_loop [--runs=3] [--rounds=12] [--threads=1] \
//                      [--inner-threads=1]
//
// A Monte-Carlo ensemble of independent loops on the shared
// run_experiment engine; --threads=N fans the runs out across cores,
// --inner-threads=N instead parallelizes each run's per-node loops (round
// engine + best-response sweep). Both keep aggregates bit-identical.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/strategic_loop.hpp"

using namespace roleshare;

namespace {

void run_and_print(const char* title, econ::SchemeKind scheme,
                   std::size_t runs, std::size_t rounds, std::size_t threads,
                   std::size_t inner_threads) {
  sim::StrategicEnsembleConfig config;
  config.base.network.node_count = 150;
  config.base.network.seed = 99;
  config.base.rounds = rounds;
  config.base.scheme = scheme;
  config.runs = runs;
  config.threads = threads;
  config.inner_threads = inner_threads;

  const sim::StrategicEnsembleResult result =
      sim::run_strategic_ensemble(config);
  std::printf("\n== %s ==\n", title);
  std::printf("%6s %14s %10s %14s\n", "round", "cooperating%", "final%",
              "reward(Algos)");
  for (std::size_t r = 0; r < rounds; ++r) {
    std::printf("%6zu %14.1f %10.1f %14.4f\n", r + 1,
                result.cooperation_series[r] * 100,
                result.final_series[r] * 100, result.reward_series[r]);
  }
  std::printf("mean total paid: %.4f Algos | cooperation at horizon: "
              "%.0f%%\n",
              result.mean_total_reward_algos,
              result.mean_final_cooperation * 100);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = bench::arg_size(argc, argv, "runs", 3);
  const std::size_t rounds = bench::arg_size(argc, argv, "rounds", 12);
  const std::size_t threads = bench::arg_threads(argc, argv);
  const std::size_t inner_threads = bench::arg_inner_threads(argc, argv);

  std::printf("150 rational nodes, stakes U(1,50), myopic best-response\n"
              "updates between rounds; everyone starts cooperative.\n"
              "%zu independent runs per scheme (threads=%zu, "
              "inner-threads=%zu).\n",
              runs, threads, inner_threads);

  run_and_print("Foundation stake-proportional rewards (Eq 3)",
                econ::SchemeKind::StakeProportional, runs, rounds, threads,
                inner_threads);
  run_and_print("Role-based rewards + Algorithm 1 (Eq 5)",
                econ::SchemeKind::RoleBased, runs, rounds, threads,
                inner_threads);

  std::printf("\nReading: the Foundation pays 20 Algos per round and still\n"
              "loses the network; the role-based mechanism pays orders of\n"
              "magnitude less and keeps every role incentive-compatible.\n");
  return 0;
}
