// E5 — Figure 6 (a)-(d): distribution of the computed per-round B_i for
// the four stake distributions of §V-B — U(1,200), N(100,20), N(100,10)
// at ~50M total Algos, and N(2000,25) (the paper's "current network" with
// >1B Algos).
//
// Expected shape: U(1,200) needs by far the largest rewards (many tiny
// stakes drive s*_k down); the normal distributions need progressively
// less as their minimum stake rises; per-Algo-of-stake the N(2000,25)
// economy is the cheapest to secure.
//
// Panel layout, seeds and config construction live in
// bench/bench_drivers.hpp (make_fig6_driver) — shared with the
// orchestrate coordinator/worker pair.
//
// Sharding / checkpointing (DESIGN.md §6): --run-begin/--run-end +
// --partial-out write a mergeable RewardPartial per panel instead of the
// figure; --checkpoint-every / --partial-in / --stop-after give the
// shard crash-resume semantics; --series-out writes the deterministic
// snapshot CI diffs against a merge_partials run.
#include <cstdio>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/reward_experiment.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const bench::Fig6Driver d = bench::make_fig6_driver(argc, argv);

  bench::print_header("Figure 6", "distribution of computed B_i per round");
  std::printf("nodes=%zu runs=%zu rounds/run=%zu threads=%zu "
              "inner-threads=%zu agg=%s tx-churn=1000x U(-4,4) "
              "(paper: 500k nodes; scale with --nodes; shard with "
              "--run-begin/--run-end + --partial-out, resume with "
              "--checkpoint-every + --partial-in)\n",
              d.nodes, d.runs, d.rounds, d.threads, d.inner_threads,
              sim::to_string(d.agg));

  const bench::WallTimer timer;
  const auto exec = bench::run_figure(d.panels, argc, argv);
  if (!exec) return 0;

  bench::JsonFields json_fields = d.bench_fields();
  std::size_t accumulator_bytes = 0;
  for (std::size_t i = 0; i < d.panels.panel_count; ++i) {
    const sim::RewardExperimentResult result = exec->partials[i].finalize();
    json_fields.emplace_back(
        "mean_bi_" + std::string(1, bench::fig6::kPanels[i]), result.mean_bi);
    accumulator_bytes += result.accumulator_bytes;

    std::printf("\n--- Fig 6(%c): stakes %s ---\n", bench::fig6::kPanels[i],
                bench::fig6::specs()[i].name().c_str());
    std::printf("mean S_N = %.1fM Algos | infeasible = %zu\n",
                result.mean_total_stake / 1e6, result.infeasible_rounds);
    std::printf("mean split: alpha=%.4f beta=%.4f gamma=%.4f\n",
                result.mean_alpha, result.mean_beta,
                1.0 - result.mean_alpha - result.mean_beta);
    if (d.agg == sim::AggBackend::Streaming) {
      // Streaming backend: the raw sample list is deliberately not
      // materialized — report the per-round means it does keep.
      std::printf("B_i Algos mean=%.2f (streaming backend: raw samples not "
                  "materialized, accumulator holds %.1f KiB)\n",
                  result.mean_bi,
                  static_cast<double>(result.accumulator_bytes) / 1024.0);
      continue;
    }
    if (result.bi_algos.empty()) {
      std::printf("B_i Algos: no feasible rounds — nothing to plot\n");
      continue;
    }
    const util::Summary summary = util::summarize(result.bi_algos);
    std::printf("B_i Algos (%zu feasible rounds): mean=%.2f sd=%.2f "
                "min=%.2f p25=%.2f med=%.2f p75=%.2f max=%.2f\n",
                result.bi_algos.size(), summary.mean, summary.stddev,
                summary.min, summary.p25, summary.median, summary.p75,
                summary.max);
    util::Histogram hist(summary.min * 0.95, summary.max * 1.05 + 1e-9, 12);
    hist.add_all(result.bi_algos);
    std::printf("%s", hist.render(40).c_str());
  }

  json_fields.emplace_back("accumulator_bytes",
                           static_cast<double>(accumulator_bytes));
  json_fields.emplace_back("wall_ms", timer.elapsed_ms());
  bench::emit_json("fig6_bi_distributions", json_fields);

  std::printf("\nShape check: mean B_i must be largest for U(1,200) and\n"
              "shrink for tighter distributions; N(2000,25) cheapest per\n"
              "unit of stake (paper: ~50 / ~5 / ~1.2 Algos at 500k nodes).\n");
  return 0;
}
