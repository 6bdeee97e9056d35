// Shard orchestration CLI (DESIGN.md §11): turns any shard-capable
// figure bench into a supervised multi-process job — one coordinator,
// --workers forked worker agents, a Unix-socket wire protocol — whose
// --series-out is byte-identical to the single-process bench's.
//
//   $ ./orchestrate --bench=fig6_bi_distributions --workers=3 \
//       --window=8 --series-out=fig6_orch.json --spool-dir=fig6.orch \
//       --nodes=2000 --runs=16 --rounds=4
//
// The bench's own knobs (--nodes/--runs/--rounds/--threads/--agg/...)
// pass through verbatim: coordinator and every worker parse the SAME
// argv through the same bench/bench_drivers.hpp factory, and each
// worker's HELLO echoes the resulting header for the coordinator to
// verify byte-for-byte — config drift aborts the job instead of
// corrupting it.
//
// Failure-path knobs (all deterministic, all first-class tested):
//   --kill-worker-after=N  worker 0 _exit(9)s after executing N runs,
//                          before the message it owes. Mid-window: the
//                          replacement resumes from the checkpoint.
//                          At a window boundary: the finished partial
//                          was already published, so the retry is a
//                          result-store cache hit (needs --store).
//   --drop-assignment=N    worker 0 swallows its first N ASSIGNs;
//                          --lease-seconds must notice and re-issue.
//   --reissue=W            after window W folds, assign it once more —
//                          the duplicate result is discarded and, with
//                          --store, served from cache not recomputed.
//   --lease-seconds=S      re-issue a window leased S seconds without
//                          progress (straggler keeps running; first
//                          finished attempt wins).
//   --max-attempts=N       abort after N failed attempts of one window.
//
// Worker-level knobs forwarded into run_sharded_panels: --window (runs
// per assignment), --checkpoint-every, --store=DIR. Spools are RSBP.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "orch/coordinator.hpp"
#include "orch/spawn.hpp"
#include "orch/worker.hpp"

using namespace roleshare;

namespace {

int run(int argc, char** argv) {
  const std::string bench_name = bench::arg_string(argc, argv, "bench", "");
  if (bench_name.empty())
    throw std::invalid_argument(
        std::string("--bench is required — one of: ") +
        bench::kShardableBenchNames);
  const std::size_t workers = bench::arg_size(argc, argv, "workers", 3);
  // Refused before the default window divides by it and before the
  // coordinator creates the spool directory.
  if (workers == 0)
    throw std::invalid_argument("--workers=0: a job needs at least one worker");
  const std::size_t window_arg = bench::arg_size(argc, argv, "window", 0);
  const double lease_seconds =
      bench::arg_real(argc, argv, "lease-seconds", 0.0);
  const std::size_t max_attempts =
      bench::arg_size(argc, argv, "max-attempts", 5);
  const std::size_t kill_after =
      bench::arg_size(argc, argv, "kill-worker-after", 0);
  const std::size_t drop_assignments =
      bench::arg_size(argc, argv, "drop-assignment", 0);
  const std::optional<std::size_t> reissue =
      bench::arg_optional_size(argc, argv, "reissue");
  const std::size_t checkpoint_every =
      bench::arg_size(argc, argv, "checkpoint-every", 0);
  const std::string series_out =
      bench::arg_string(argc, argv, "series-out", "");
  const std::string store_dir = bench::arg_string(argc, argv, "store", "");
  const bool verbose = bench::arg_int(argc, argv, "verbose", 0) != 0;
  std::string spool_dir = bench::arg_string(argc, argv, "spool-dir", "");
  if (spool_dir.empty()) spool_dir = bench_name + ".orch";
  // Socket paths have a hard kernel cap (~107 bytes) — the spool dir
  // must stay short, so fail on it before bind() produces a worse error.
  const std::string socket_path =
      bench::arg_string(argc, argv, "socket", spool_dir + "/orch.sock");

  bench::ShardableBench shardable =
      bench::make_shardable_bench(bench_name, argc, argv);

  orch::JobConfig job;
  job.runs = shardable.runs;
  job.window =
      window_arg > 0
          ? window_arg
          : std::max<std::size_t>(
                1, (shardable.runs + 2 * workers - 1) / (2 * workers));
  job.workers = workers;
  job.socket_path = socket_path;
  job.spool_dir = spool_dir;
  job.lease_seconds = lease_seconds;
  job.max_attempts = max_attempts;
  job.reissue_window = reissue ? static_cast<long long>(*reissue) : -1;
  job.verbose = verbose;

  bench::print_header("Orchestrate",
                      "coordinator + worker agents over one bench");
  std::printf("bench=%s runs=%zu window=%zu workers=%zu lease=%.1fs "
              "max-attempts=%zu%s%s%s store=%s\n",
              bench_name.c_str(), job.runs, job.window, job.workers,
              job.lease_seconds, job.max_attempts,
              kill_after > 0 ? " KILL-INJECTION" : "",
              drop_assignments > 0 ? " DROP-INJECTION" : "",
              reissue ? " REISSUE-INJECTION" : "",
              store_dir.empty() ? "(none)" : store_dir.c_str());

  // Worker agents are forked, not exec'd: the child re-derives the
  // bench from THIS argv (same factory, same bytes) and speaks the wire
  // protocol back to us. Fault injection targets worker 0 only, so a
  // respawned replacement completes the job instead of crash-looping.
  const orch::SpawnWorkerFn spawn_worker = [&](std::uint32_t worker_id) {
    return orch::spawn_child([&, worker_id]() {
      bench::ShardableBench mine =
          bench::make_shardable_bench(bench_name, argc, argv);
      orch::WorkerOptions options;
      options.socket_path = socket_path;
      options.worker_id = worker_id;
      options.verbose = verbose;
      if (worker_id == 0) {
        options.kill_after_runs = kill_after;
        options.drop_assignments = drop_assignments;
      }
      orch::WindowRunner runner;
      runner.config_echo = mine.config_echo;
      runner.run = [&](const orch::WindowAssignment& assignment,
                       std::size_t stop_after,
                       const std::function<void(std::size_t)>& on_checkpoint) {
        bench::ShardKnobs knobs;
        knobs.runs = mine.runs;
        knobs.shard = sim::RunShard{assignment.run_begin, assignment.run_end};
        knobs.partial_out = assignment.spool_path;
        knobs.partial_in = assignment.resume_path;
        knobs.checkpoint_every = checkpoint_every;
        knobs.stop_after = stop_after;
        knobs.store_dir = store_dir;
        knobs.on_checkpoint = on_checkpoint;
        return mine.run_window(knobs);
      };
      return orch::run_worker(options, runner);
    });
  };

  orch::JobCallbacks callbacks;
  callbacks.config_echo = shardable.config_echo;
  callbacks.fold = shardable.fold;
  callbacks.finalize = [&]() {
    if (series_out.empty()) return;
    shardable.write_series(series_out);
    std::printf("[series] wrote %s\n", series_out.c_str());
  };

  const bench::WallTimer timer;
  const orch::JobStats stats =
      orch::run_coordinator(job, callbacks, spawn_worker);

  std::printf("[orchestrate] done: windows=%zu folded=%zu retries=%zu "
              "store_hits=%zu worker_deaths=%zu respawns=%zu "
              "duplicates=%zu checkpoints=%zu\n",
              stats.windows, stats.folded, stats.retries, stats.store_hits,
              stats.worker_deaths, stats.respawns, stats.duplicate_results,
              stats.checkpoints);
  bench::emit_json(
      "orchestrate_" + bench_name,
      {{"runs", static_cast<double>(job.runs)},
       {"window", static_cast<double>(job.window)},
       {"workers", static_cast<double>(job.workers)},
       {"windows", static_cast<double>(stats.windows)},
       {"retries", static_cast<double>(stats.retries)},
       {"store_hits", static_cast<double>(stats.store_hits)},
       {"worker_deaths", static_cast<double>(stats.worker_deaths)},
       {"respawns", static_cast<double>(stats.respawns)},
       {"duplicate_results", static_cast<double>(stats.duplicate_results)},
       {"checkpoints", static_cast<double>(stats.checkpoints)},
       {"wall_ms", timer.elapsed_ms()}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orchestrate: %s\n", e.what());
    return 1;
  }
}
