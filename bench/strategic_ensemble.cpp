// S2 — strategic best-response ensemble: the paper's headline
// incentive-compatibility claim as a shardable Monte-Carlo sweep.
//
// Two panels, one per reward scheme:
//   foundation  stake-proportional Table-III rewards — cooperation
//               unravels (Theorem 2) and consensus degrades with it;
//   role-based  Algorithm-1 minimal B_i — the cooperative profile is
//               self-enforcing (Theorem 3) at a fraction of the cost.
//
// Scheme table, seeds and config construction live in
// bench/bench_drivers.hpp (make_strategic_driver) — shared with the
// orchestrate coordinator/worker pair.
//
// Each panel is an independent ensemble of strategic loops on the shared
// ExperimentRunner engine (run k = stream root.split(k)), reduced through
// a mergeable StrategicPartial — so the ensemble shards, checkpoints and
// resumes exactly like fig3/fig6/fig7 (DESIGN.md §6):
//
//   $ ./strategic_ensemble --runs=9 --run-begin=0 --run-end=3 \
//       --partial-out=s0.bin
//   $ ./strategic_ensemble --runs=9 --run-begin=3 --run-end=9 \
//       --checkpoint-every=2 --partial-out=s1.bin
//   $ ./merge_partials --series-out=merged.json s0.bin s1.bin
#include <cstdio>
#include <string>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/strategic_loop.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const bench::StrategicDriver d = bench::make_strategic_driver(argc, argv);
  const bench::ShardKnobs knobs = bench::arg_shard_knobs(argc, argv, d.runs);
  const std::string series_out =
      bench::arg_string(argc, argv, "series-out", "");

  bench::print_header("Strategic ensemble",
                      "myopic best-response dynamics per reward scheme");
  std::printf("nodes=%zu runs=%zu rounds=%zu seed=%llu threads=%zu "
              "inner-threads=%zu agg=%s (shard with --run-begin/--run-end "
              "+ --partial-out, resume with --checkpoint-every + "
              "--partial-in)\n",
              d.nodes, d.runs, d.rounds,
              static_cast<unsigned long long>(d.seed), d.threads,
              d.inner_threads, sim::to_string(d.agg));

  const bench::WallTimer timer;
  const auto exec = bench::run_sharded_panels<sim::StrategicPartial>(
      knobs, d.panels.panel_count, d.panels.header, d.panels.panel_meta,
      d.panels.run_panel);
  if (bench::shard_worker_done(exec, knobs, d.panels.header,
                               timer.elapsed_ms()))
    return 0;

  bench::JsonFields json_fields = {
      {"nodes", static_cast<double>(d.nodes)},
      {"runs", static_cast<double>(d.runs)},
      {"rounds", static_cast<double>(d.rounds)},
      {"threads", static_cast<double>(d.threads)},
      {"inner_threads", static_cast<double>(d.inner_threads)},
      {"agg", sim::to_string(d.agg)}};
  std::size_t accumulator_bytes = 0;

  for (std::size_t panel = 0; panel < d.panels.panel_count; ++panel) {
    const sim::StrategicEnsembleResult result =
        exec.partials[panel].finalize();
    accumulator_bytes += result.accumulator_bytes;

    std::printf("\n--- %s rewards ---\n",
                bench::strategic::kSchemeNames[panel]);
    std::printf("%6s %14s %10s %14s\n", "round", "cooperating%", "final%",
                "reward(Algos)");
    for (std::size_t r = 0; r < d.rounds; ++r) {
      std::printf("%6zu %14.1f %10.1f %14.4f\n", r + 1,
                  result.cooperation_series[r] * 100,
                  result.final_series[r] * 100, result.reward_series[r]);
    }
    std::printf("mean total paid: %.4f Algos | cooperation at horizon: "
                "%.0f%%\n",
                result.mean_total_reward_algos,
                result.mean_final_cooperation * 100);
    json_fields.emplace_back(
        std::string("final_coop_") + bench::strategic::kSchemeNames[panel],
        result.mean_final_cooperation);
    json_fields.emplace_back(
        std::string("total_reward_") + bench::strategic::kSchemeNames[panel],
        result.mean_total_reward_algos);
  }

  if (!series_out.empty()) {
    d.panels.write_series(series_out, exec.window_begin, exec.cursor,
                          exec.partials);
    std::printf("\n[series] wrote %s\n", series_out.c_str());
  }

  json_fields.emplace_back("accumulator_bytes",
                           static_cast<double>(accumulator_bytes));
  json_fields.emplace_back("wall_ms", timer.elapsed_ms());
  bench::emit_json("strategic_ensemble", json_fields);

  std::printf("\nShape check: cooperation under the Foundation scheme decays\n"
              "toward free-riding while the role-based scheme holds it at\n"
              "(or near) 100%% — at a far smaller total reward.\n");
  return 0;
}
