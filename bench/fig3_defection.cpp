// E1 — Figure 3 (a)-(f): percentage of nodes extracting final / tentative /
// no blocks per round, for defection rates 5%..30%.
//
// Workload: N nodes, stakes U(1,50), gossip fan-out 5, defectors chosen
// uniformly at random, trimmed-mean (20%) aggregation over independent runs
// — the paper's §III-C methodology. Expected shape: low defection leaves
// most nodes on final blocks; >=15% pushes the network into tentative /
// no-block regimes; ~30% collapses consensus within the first rounds.
//
// Runs execute on the shared ExperimentRunner engine: --threads=N spreads
// the Monte-Carlo runs across N cores (0 = all) with bit-identical output.
// --inner-threads=N instead parallelizes each run's per-node round-engine
// loops — the knob for single-run latency at large --nodes; also
// bit-identical, and forced serial while --threads is parallel.
//
// Panel layout, seeds and config construction live in
// bench/bench_drivers.hpp (make_fig3_driver) — shared with the
// orchestrate coordinator/worker pair, so an orchestrated run cannot
// drift from this binary's config.
//
// Aggregation / sharding / checkpoint knobs (DESIGN.md §6):
//   --agg={exact,streaming}   reduction backend; streaming caps the
//                             accumulator state at O(rounds) memory.
//   --run-begin=B --run-end=E execute only global runs [B, E) — one shard
//                             of a multi-process sweep.
//   --partial-out=FILE        write the shard's mergeable partial (an
//                             RSBP frame) instead of a figure; feed the
//                             files from all shards to merge_partials.
//   --checkpoint-every=R      rewrite the partial every R runs with a
//                             resume cursor, so a crashed shard loses at
//                             most R runs of work.
//   --partial-in=FILE         resume a checkpoint: execute the remainder
//                             of its window and keep checkpointing.
//   --stop-after=N            stop (with a checkpoint) after N runs —
//                             deterministic crash injection for tests.
//   --series-out=FILE         also write the deterministic series
//                             snapshot the CI shard-smoke job diffs
//                             against a merged run.
#include <cstdio>
#include <string>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/defection_experiment.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const bench::Fig3Driver d = bench::make_fig3_driver(argc, argv);
  const bench::ShardKnobs knobs = bench::arg_shard_knobs(argc, argv, d.runs);
  const std::string series_out =
      bench::arg_string(argc, argv, "series-out", "");

  bench::print_header("Figure 3", "block extraction vs. defection rate");
  std::printf("nodes=%zu runs=%zu rounds=%zu threads=%zu inner-threads=%zu "
              "agg=%s stakes=U(1,50) fanout=5 (override with "
              "--nodes/--runs/--rounds/--threads/--inner-threads/--agg; "
              "shard with --run-begin/--run-end + --partial-out, resume "
              "with --checkpoint-every + --partial-in)\n",
              d.nodes, d.runs, d.rounds, d.threads, d.inner_threads,
              sim::to_string(d.agg));

  const bench::WallTimer timer;
  const auto exec = bench::run_sharded_panels<sim::DefectionPartial>(
      knobs, d.panels.panel_count, d.panels.header, d.panels.panel_meta,
      d.panels.run_panel);
  // Shard-worker mode ends here: the partial is on disk, merge_partials
  // folds the shards into the figure.
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
  for (std::size_t i = 0; i < d.panels.panel_count; ++i) {
    const sim::DefectionSeries series =
        exec.partials[i].finalize(bench::fig3::kTrim);
    accumulator_bytes += series.accumulator_bytes;

    std::printf("\n--- Fig 3(%c): defection rate %.0f%% ---\n",
                bench::fig3::kPanels[i], bench::fig3::kRates[i] * 100);
    bench::print_defection_table(series);
    const double mean_final = bench::mean_final_pct(series);
    std::printf("mean final%% = %.1f | runs with chain progress = %.0f%%\n",
                mean_final, series.runs_with_progress * 100);
    json_fields.emplace_back(
        "mean_final_pct_" +
            std::to_string(static_cast<int>(bench::fig3::kRates[i] * 100)),
        mean_final);
  }

  if (!series_out.empty()) {
    d.panels.write_series(series_out, exec.window_begin, exec.cursor,
                          exec.partials);
    std::printf("\n[series] wrote %s\n", series_out.c_str());
  }

  json_fields.emplace_back("accumulator_bytes",
                           static_cast<double>(accumulator_bytes));
  json_fields.emplace_back("wall_ms", timer.elapsed_ms());
  bench::emit_json("fig3_defection", json_fields);

  std::printf("\nShape check: mean final%% must fall monotonically with the\n"
              "defection rate, with collapse (<50%% final) by 25-30%%.\n");
  return 0;
}
