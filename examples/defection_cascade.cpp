// Defection cascade: the paper's §III-C motivation scenario. Honest-but-
// selfish nodes observe that rewards do not cover their costs, defect, stop
// relaying gossip — and the network slides from final consensus through
// tentative blocks into no consensus at all.
//
//   $ ./defection_cascade [--runs=5] [--rounds=12] [--threads=1]
//
// Runs execute on the shared run_experiment engine; --threads=N spreads
// them across cores with bit-identical aggregates.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/defection_experiment.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const std::size_t runs = bench::arg_size(argc, argv, "runs", 5);
  const std::size_t rounds = bench::arg_size(argc, argv, "rounds", 12);
  const std::size_t threads = bench::arg_threads(argc, argv);

  std::printf("Defection cascade on a 300-node network, stakes U(1,50),\n"
              "fan-out 5; %zu runs x %zu rounds per defection level "
              "(threads=%zu).\n\n",
              runs, rounds, threads);
  std::printf("%10s %10s %12s %10s %18s\n", "defection", "final%",
              "tentative%", "none%", "chain progress");

  for (const double rate : {0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40}) {
    sim::DefectionExperimentConfig config;
    config.network.node_count = 300;
    config.network.seed = 7;
    config.network.defection_rate = rate;
    config.runs = runs;
    config.rounds = rounds;
    config.threads = threads;

    const sim::DefectionSeries series = sim::run_defection_experiment(config);
    double final_pct = 0, tentative_pct = 0, none_pct = 0;
    for (const sim::RoundAggregate& agg : series.rounds) {
      final_pct += agg.final_pct;
      tentative_pct += agg.tentative_pct;
      none_pct += agg.none_pct;
    }
    const auto n = static_cast<double>(series.rounds.size());
    std::printf("%9.0f%% %10.1f %12.1f %10.1f %17.0f%%\n", rate * 100,
                final_pct / n, tentative_pct / n, none_pct / n,
                series.runs_with_progress * 100);
  }

  std::printf("\nReading: once defectors stop relaying votes and proposals,\n"
              "committee quorums miss their thresholds and nodes fall back\n"
              "to tentative or no blocks — the Fig-3 collapse.\n");
  return 0;
}
