// E6/E7 — Figure 7 (a, b, c):
//  (a) per-round reward distributed by our adaptive role-based mechanism
//      versus the Algorand Foundation schedule, per stake distribution;
//  (b) accumulated rewards over the horizon;
//  (c) accumulated rewards under the U_w(1,200) filters that exclude
//      Other-nodes with stakes below w in {3, 5, 7}.
//
// Expected shape: the Foundation pays a flat-then-rising 20+ Algos per
// round; our mechanism pays a (much smaller) stake-distribution-dependent
// amount and does not grow over the horizon; excluding small stakes cuts
// the required reward further (~1/w).
//
// Panel layout, seeds and config construction live in
// bench/bench_drivers.hpp (make_fig7_driver) — shared with the
// orchestrate coordinator/worker pair.
//
// Sharding / checkpointing (DESIGN.md §6): the six panels (three stake
// distributions + three U_w filters) execute through the checkpointed
// shard driver; --partial-out / --partial-in / --checkpoint-every /
// --series-out behave exactly as on fig3/fig6.
#include <cstdio>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/reward_experiment.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const bench::Fig7Driver d = bench::make_fig7_driver(argc, argv);

  bench::print_header("Figure 7", "our adaptive reward vs Foundation schedule");
  std::printf("nodes=%zu runs=%zu rounds/run=%zu threads=%zu "
              "inner-threads=%zu agg=%s (shard with --run-begin/--run-end "
              "+ --partial-out, resume with --checkpoint-every + "
              "--partial-in)\n",
              d.nodes, d.runs, d.rounds, d.threads, d.inner_threads,
              sim::to_string(d.agg));

  const bench::WallTimer timer;
  const auto exec = bench::run_figure(d.panels, argc, argv);
  if (!exec) return 0;

  std::vector<sim::RewardExperimentResult> results;
  for (const sim::RewardPartial& partial : exec->partials)
    results.push_back(partial.finalize());

  // (a) per-round rewards.
  std::printf("\n--- Fig 7(a): distributed reward per round (Algos) ---\n");
  std::printf("%6s %12s", "round", "Foundation");
  for (const auto& spec : bench::fig7::specs())
    std::printf(" %12s", spec.name().c_str());
  std::printf("\n");
  for (std::size_t r = 0; r < d.rounds; ++r) {
    std::printf("%6zu %12.1f", r + 1, results[0].foundation_per_round[r]);
    for (std::size_t i = 0; i < 3; ++i)
      std::printf(" %12.2f", results[i].bi_per_round_mean[r]);
    std::printf("\n");
  }

  // (b) accumulated rewards.
  std::printf("\n--- Fig 7(b): accumulated rewards (Algos) ---\n");
  std::printf("%6s %12s", "round", "Foundation");
  for (const auto& spec : bench::fig7::specs())
    std::printf(" %12s", spec.name().c_str());
  std::printf("\n");
  double acc_foundation = 0;
  std::vector<double> acc(3, 0.0);
  for (std::size_t r = 0; r < d.rounds; ++r) {
    acc_foundation += results[0].foundation_per_round[r];
    std::printf("%6zu %12.1f", r + 1, acc_foundation);
    for (std::size_t i = 0; i < 3; ++i) {
      acc[i] += results[i].bi_per_round_mean[r];
      std::printf(" %12.2f", acc[i]);
    }
    std::printf("\n");
  }

  // (c) the U_w(1,200) small-stake filters.
  std::printf("\n--- Fig 7(c): accumulated reward with stakes < w excluded, "
              "U(1,200) ---\n");
  std::printf("%6s %12s %12s %12s %12s\n", "round", "U(1,200)", "U3", "U5",
              "U7");
  double acc_base = 0;
  std::vector<double> acc_f(3, 0.0);
  for (std::size_t r = 0; r < d.rounds; ++r) {
    acc_base += results[0].bi_per_round_mean[r];
    std::printf("%6zu %12.2f", r + 1, acc_base);
    for (std::size_t i = 0; i < 3; ++i) {
      acc_f[i] += results[3 + i].bi_per_round_mean[r];
      std::printf(" %12.2f", acc_f[i]);
    }
    std::printf("\n");
  }

  std::size_t accumulator_bytes = 0;
  for (const auto& result : results) accumulator_bytes += result.accumulator_bytes;
  bench::JsonFields json_fields = d.bench_fields();
  json_fields.insert(
      json_fields.end(),
      {{"accumulator_bytes", static_cast<double>(accumulator_bytes)},
       {"mean_bi_u1_200", results[0].mean_bi},
       {"mean_bi_n100_20", results[1].mean_bi},
       {"mean_bi_n100_10", results[2].mean_bi},
       {"mean_bi_u1_200_w7", results[5].mean_bi},
       {"wall_ms", timer.elapsed_ms()}});
  bench::emit_json("fig7_reward_comparison", json_fields);

  std::printf("\nShape check: ours << Foundation and flat across the\n"
              "horizon; U7 < U5 < U3 < U(1,200) (higher w, smaller B_i).\n");
  return 0;
}
