// Scenario tour: the behaviour-policy layer in one sitting.
//
// Runs the same 150-node network under four policies — scripted defection
// (the Fig-3 baseline), adaptive best-response defection, stake-correlated
// defection, and scripted defection under churn — and prints the per-round
// story: live population, cooperation share, and who still extracts final
// blocks. Everything rides the deterministic run_experiment engine, so
// --threads only changes wall time, never a number.
//
//   $ ./churn_scenarios [--runs=4] [--rounds=10] [--threads=1]
#include <cstdio>

#include "bench_util.hpp"
#include "sim/defection_experiment.hpp"

using namespace roleshare;

namespace {

void print_series(const char* title, const sim::DefectionSeries& series) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%6s %7s %8s %8s\n", "round", "live", "coop%", "final%");
  for (std::size_t r = 0; r < series.rounds.size(); ++r) {
    std::printf("%6zu %7.1f %8.1f %8.1f\n", r + 1, series.live_series[r],
                series.cooperation_series[r], series.rounds[r].final_pct);
  }
  std::printf("live range %zu..%zu | runs with chain progress %.0f%%\n",
              series.min_live, series.max_live,
              series.runs_with_progress * 100);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = bench::arg_size(argc, argv, "runs", 4);
  const std::size_t rounds = bench::arg_size(argc, argv, "rounds", 10);
  const std::size_t threads = bench::arg_threads(argc, argv);

  std::printf("Scenario tour: one 150-node network, stakes U(1,50), 15%%\n"
              "defection pressure under four behaviour policies\n"
              "(%zu runs x %zu rounds, threads=%zu).\n",
              runs, rounds, threads);

  sim::DefectionExperimentConfig base;
  base.network.node_count = 150;
  base.network.seed = 2020;
  base.runs = runs;
  base.rounds = rounds;
  base.threads = threads;

  {
    sim::DefectionExperimentConfig config = base;
    config.network.defection_rate = 0.15;
    print_series("scripted: 15% defect by script, every round",
                 sim::run_defection_experiment(config));
  }
  {
    sim::DefectionExperimentConfig config = base;
    config.network.defection_rate = 0.15;
    config.policy.kind = sim::PolicyKind::AdaptiveDefect;
    print_series("adaptive: the same 15% best-respond to observed rewards",
                 sim::run_defection_experiment(config));
  }
  {
    sim::DefectionExperimentConfig config = base;
    config.policy.kind = sim::PolicyKind::StakeCorrelatedDefect;
    config.policy.defect_at_bottom = 0.30;
    config.policy.defect_at_top = 0.0;
    print_series("stake-correlated: P(defect) 30% -> 0% by stake percentile",
                 sim::run_defection_experiment(config));
  }
  {
    sim::DefectionExperimentConfig config = base;
    config.network.defection_rate = 0.15;
    config.policy.churn.leave_probability = 0.08;
    config.policy.churn.join_probability = 0.15;
    config.policy.churn.min_live = 40;
    print_series("churn: 15% scripted defection, nodes leave/join per round",
                 sim::run_defection_experiment(config));
  }

  std::printf("\nReading: adaptive candidates defect as soon as observed\n"
              "rewards stop covering costs (the §III-C unraveling);\n"
              "stake-correlated defection spares the whales the committee\n"
              "weights depend on, so consensus degrades more gracefully;\n"
              "churn varies the live population every round while the\n"
              "engine keeps sortition, gossip and tallies on live nodes\n"
              "only — and every number above is bit-identical for any\n"
              "--threads value.\n");
  return 0;
}
