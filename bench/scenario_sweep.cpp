// S1 — scenario-diversity sweep: the behaviour-policy layer
// (sim/scenario_policy.hpp) driven across its three reactive policies ×
// defection levels, on the shared run_experiment engine.
//
//   scripted  — the Fig-3 baseline: a fixed fraction defects by script.
//   adaptive  — the same cohort re-decides every round via
//               game::best_response against the observed Foundation
//               reward (§III-C unraveling from actual payoffs).
//   stake     — defection probability falls linearly with stake
//               percentile (tests the claim that large stakeholders stay
//               honest); level L maps to P(defect)=2L at the bottom, 0 at
//               the top, so the population mean matches the scripted rate.
//   churn     — scripted defection plus a join/leave schedule; the live
//               population varies per round and all consensus loops index
//               live nodes only.
//
// Policy table, seeds and config construction live in
// bench/bench_drivers.hpp (make_scenario_driver) — shared with the
// orchestrate coordinator/worker pair.
//
// The binary self-checks the engine contract on every figure-mode
// invocation: each policy is re-run serially (--threads=1) at the middle
// level and must reproduce the sweep's aggregates bit for bit, and churn
// cells must show round-varying live-node counts. Exit 1 on either
// failure.
//
// The 12 (policy × level) cells are panels of the checkpointed shard
// driver, so the sweep shards and resumes exactly like fig3
// (--run-begin/--run-end + --partial-out, --checkpoint-every +
// --partial-in; DESIGN.md §6). Self-checks are skipped in shard-worker
// mode — a window is not the full sweep.
//
//   $ ./scenario_sweep --nodes=120 --runs=6 --rounds=8 --threads=0
#include <cstdio>
#include <string>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/defection_experiment.hpp"

using namespace roleshare;

namespace {

double series_mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

bool bit_identical(const sim::DefectionSeries& a,
                   const sim::DefectionSeries& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.rounds[r].final_pct != b.rounds[r].final_pct ||
        a.rounds[r].tentative_pct != b.rounds[r].tentative_pct ||
        a.rounds[r].none_pct != b.rounds[r].none_pct)
      return false;
  }
  return a.runs_with_progress == b.runs_with_progress &&
         a.live_series == b.live_series &&
         a.cooperation_series == b.cooperation_series &&
         a.min_live == b.min_live && a.max_live == b.max_live;
}

std::string join_series(const std::vector<double>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", xs[i]);
    out += buf;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ScenarioDriver d = bench::make_scenario_driver(argc, argv);

  bench::print_header("Scenario sweep",
                      "behaviour policies x defection levels");
  std::printf("nodes=%zu runs=%zu rounds=%zu threads=%zu inner-threads=%zu "
              "agg=%s (override with --nodes/--runs/--rounds/--threads/"
              "--inner-threads/--agg; shard with --run-begin/--run-end + "
              "--partial-out)\n\n",
              d.nodes, d.runs, d.rounds, d.threads, d.inner_threads,
              sim::to_string(d.agg));

  const bench::WallTimer timer;
  const auto exec = bench::run_figure(d.panels, argc, argv);
  if (!exec) return 0;
  const sim::RunShard window{exec->window_begin, exec->window_end};

  std::printf("%10s %7s %8s %7s %13s %10s\n", "policy", "level", "final%",
              "coop%", "live min..max", "progress");

  bench::JsonFields json_fields = d.bench_fields();

  bool all_identical = true;
  bool churn_varies = true;
  std::size_t accumulator_bytes = 0;
  for (std::size_t panel = 0; panel < d.panels.panel_count; ++panel) {
    const bench::scenario::PolicyCase& policy =
        bench::scenario::panel_policy(panel);
    const std::size_t i = bench::scenario::panel_level(panel);
    const double level = bench::scenario::kLevels[i];
    const sim::DefectionSeries series =
        exec->partials[panel].finalize(bench::scenario::kTrim);
    accumulator_bytes += series.accumulator_bytes;
    const double final_pct = bench::mean_final_pct(series);
    const double coop_pct = series_mean(series.cooperation_series);
    std::printf("%10s %6.0f%% %8.1f %7.1f %6zu..%-6zu %9.0f%%\n",
                policy.name, level * 100, final_pct, coop_pct,
                series.min_live, series.max_live,
                series.runs_with_progress * 100);

    const std::string tag = std::string(policy.name) + "_" +
                            std::to_string(static_cast<int>(level * 100));
    json_fields.emplace_back("mean_final_pct_" + tag, final_pct);
    json_fields.emplace_back("mean_coop_pct_" + tag, coop_pct);
    if (policy.churn) {
      json_fields.emplace_back("live_min_" + tag,
                               static_cast<double>(series.min_live));
      json_fields.emplace_back("live_max_" + tag,
                               static_cast<double>(series.max_live));
      json_fields.emplace_back("live_series_" + tag,
                               join_series(series.live_series));
      // The whole point of churn: the live population must actually
      // vary across (runs, rounds).
      churn_varies = churn_varies && series.min_live < series.max_live;
    }

    // Engine contract self-check: the middle level of every policy is
    // re-run fully serial and must match the sweep bit for bit.
    if (i == bench::scenario::kCheckedLevel) {
      sim::DefectionExperimentConfig serial = d.panel_config(panel, window);
      serial.threads = 1;
      serial.inner_threads = 1;
      all_identical = all_identical &&
                      bit_identical(series,
                                    sim::run_defection_experiment(serial));
    }
  }

  std::printf("\nbit-identical to serial: %s | churn live counts vary: %s\n",
              all_identical ? "yes" : "NO — BUG",
              churn_varies ? "yes" : "NO — BUG");
  std::printf("accumulator memory (%s backend, all cells): %.1f KiB\n",
              sim::to_string(d.agg),
              static_cast<double>(accumulator_bytes) / 1024.0);
  json_fields.emplace_back("bit_identical", all_identical ? "yes" : "no");
  json_fields.emplace_back("churn_live_varies", churn_varies ? "yes" : "no");
  json_fields.emplace_back("accumulator_bytes",
                           static_cast<double>(accumulator_bytes));
  json_fields.emplace_back("wall_ms", timer.elapsed_ms());
  bench::emit_json("scenario_sweep", json_fields);

  if (!all_identical || !churn_varies) {
    std::fprintf(stderr, "ERROR: scenario engine self-check failed "
                         "(bit_identical=%d churn_varies=%d)\n",
                 all_identical ? 1 : 0, churn_varies ? 1 : 0);
    return 1;
  }
  std::printf("\nShape check: adaptive final%% should fall below scripted at\n"
              "the same level once candidates learn defection pays; stake-\n"
              "correlated keeps whales honest, softening the collapse; churn\n"
              "shrinks and regrows the live population without breaking\n"
              "determinism.\n");
  return 0;
}
