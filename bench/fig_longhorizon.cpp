// Long-horizon economy runs (DESIGN.md §10): wealth concentration under
// compounding role-based rewards at population scale.
//
// One panel = one defection rate; each run drives a CommitteeModel::
// Sampled network through the sparse O(committee · log N) round path for
// thousands of rounds, crediting the fixed-split role payouts back into
// stake every round. The reported series are the streaming concentration
// metrics: Gini, top-k stake share, defector–wealth correlation, plus the
// Fig-3 final% consensus-health line.
//
// Expected shape: Gini and top-share drift upward as seats compound into
// stake (rich-get-richer) while final% stays flat — the economy drifts,
// consensus does not. The defector correlation tracks whether compounding
// favors the defecting cohort (defectors hide their roles, so their
// leader seats pay as Other: nothing).
//
// Panel layout, seeds and config construction live in
// bench/bench_drivers.hpp (make_longhorizon_driver) — shared with the
// orchestrate coordinator/worker pair.
//
// Sharding / checkpointing (DESIGN.md §6): --run-begin/--run-end +
// --partial-out produce a mergeable shard; --checkpoint-every +
// --partial-in resume; --store=DIR serves finished windows from the
// content-addressed cache.
// merge_partials folds shard files byte-identically (exact backend).
#include <cstdio>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/longhorizon.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const bench::LongHorizonDriver d = bench::make_longhorizon_driver(argc, argv);
  const sim::LongHorizonConfig defaults;

  bench::print_header("Long horizon",
                      "population-scale compounding economy (sparse path)");
  std::printf("nodes=%zu runs=%zu rounds/run=%zu threads=%zu "
              "inner-threads=%zu agg=%s alpha=%.2f beta=%.2f top=%.3f "
              "(shard with --run-begin/--run-end + --partial-out, resume "
              "with --checkpoint-every + --partial-in)\n",
              d.nodes, d.runs, d.rounds, d.threads, d.inner_threads,
              sim::to_string(d.agg), defaults.alpha, defaults.beta,
              defaults.top_fraction);

  const bench::WallTimer timer;
  const auto exec = bench::run_figure(d.panels, argc, argv);
  if (!exec) return 0;

  std::vector<sim::LongHorizonResult> results;
  for (const sim::LongHorizonPartial& partial : exec->partials)
    results.push_back(partial.finalize());

  std::printf("\n--- wealth concentration at the horizon (round %zu) ---\n",
              d.rounds);
  std::printf("%10s %10s %12s %14s %10s\n", "defect", "end gini",
              "end top-1%", "defector-corr", "final%");
  for (std::size_t panel = 0; panel < d.panels.panel_count; ++panel) {
    const sim::LongHorizonResult& r = results[panel];
    std::printf("%10.2f %10.4f %12.4f %14.4f %10.1f\n",
                bench::longhorizon::kDefectionRates[panel], r.mean_end_gini,
                r.mean_end_top_share, r.mean_end_defector_corr,
                r.final_pct_per_round.empty()
                    ? 0.0
                    : r.final_pct_per_round.back());
  }

  std::printf("\n--- Gini drift (every rounds/8) ---\n");
  std::printf("%8s", "round");
  for (const double rate : bench::longhorizon::kDefectionRates)
    std::printf(" %11.2f", rate);
  std::printf("\n");
  const std::size_t stride = d.rounds < 8 ? 1 : d.rounds / 8;
  for (std::size_t r = stride - 1; r < d.rounds; r += stride) {
    std::printf("%8zu", r + 1);
    for (std::size_t panel = 0; panel < d.panels.panel_count; ++panel)
      std::printf(" %11.5f", results[panel].gini_per_round[r]);
    std::printf("\n");
  }

  std::size_t accumulator_bytes = 0;
  for (const auto& result : results)
    accumulator_bytes += result.accumulator_bytes;
  bench::JsonFields json_fields = d.bench_fields();
  json_fields.insert(
      json_fields.end(),
      {{"accumulator_bytes", static_cast<double>(accumulator_bytes)},
       {"end_gini_d0", results[0].mean_end_gini},
       {"end_gini_d30", results[2].mean_end_gini},
       {"end_top_share_d0", results[0].mean_end_top_share},
       {"defector_corr_d30", results[2].mean_end_defector_corr},
       {"mean_paid_algos_d0", results[0].mean_paid_algos},
       {"peak_rss_mb", bench::peak_rss_bytes() / (1024.0 * 1024.0)},
       {"wall_ms", timer.elapsed_ms()}});
  bench::emit_json("fig_longhorizon", json_fields);

  std::printf("\nShape check: Gini/top-share drift upward with the horizon\n"
              "while final%% stays flat — compounding moves wealth, not\n"
              "consensus.\n");
  return 0;
}
