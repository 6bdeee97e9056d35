// The three benchmark workloads and the traced layer passes.
//
// Every workload drives what users run: the figure drivers in
// bench/bench_drivers.hpp (fig3_dense, longhorizon_sparse) and an
// orch::run_coordinator job over the Fig 6 driver (fig6_orchestrated).
// Every round-producing call runs with threads = inner_threads = 1; the
// only parallelism is the orchestrator's forked workers (NOTES.md says
// why).
//
// The seed picks the inputs and nothing else: for the panel workloads it
// selects which Monte-Carlo runs execute (run index seed * kRunStride
// onward, each run its own independent RNG stream), for the Fig 6 job it
// offsets the per-panel root seeds. Seed 0 is exactly the figure's own
// configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_drivers.hpp"
#include "common.hpp"
#include "orch/coordinator.hpp"
#include "trace.hpp"

namespace rsbench {

/// Runs reserved per seed for the panel workloads.
inline constexpr std::size_t kRunStride = 1000;

struct Sizes {
  std::size_t nodes = 0;
  std::size_t rounds = 0;   // rounds per Monte-Carlo run
  std::size_t runs = 0;     // fig6: runs per orchestrated job
  std::size_t window = 0;   // fig6: runs per window
  std::size_t workers = 0;  // fig6: forked workers
};
Sizes sizes_for(const std::string& workload, bool smoke);

/// One timed operation: a run_panel call, or a whole orchestrated job
/// (whose windows are the counted operations).
struct OpResult {
  std::size_t index = 0;
  std::size_t panel = 0;
  std::size_t run = 0;
  double wall_s = 0.0;       // the timed call only
  std::size_t rounds = 0;    // simulated rounds completed
  std::size_t attempted = 1;
  std::size_t failed = 0;
  std::string cause;         // empty when nothing failed
  std::string digest;        // SHA-256 of the finalized series document
  /// The op's finalized "series" object (panel workloads) — what the
  /// traced replays are checked against.
  roleshare::util::json::Value series;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Ops per balanced pass over every panel; a run stops only at the end
  /// of a pass, so each run measures every panel equally often.
  virtual std::size_t sweep() const = 0;
  virtual OpResult run_op(std::size_t k, Tracer* tracer) = 0;
};

/// The workload's set-up (drivers, output, spool and store directories) —
/// the in-process part of setup_s, which also counts process start.
/// Throws std::invalid_argument on a size the workload cannot run.
std::unique_ptr<Workload> make_workload(const Options& options,
                                        const std::string& name);

/// The Fig 6 panel driver with the per-panel root seeds offset by the
/// benchmark seed (seed 0 = make_fig6_driver's own 1000 + panel).
roleshare::bench::PanelDriver<roleshare::sim::RewardPartial>
seeded_fig6_panels(std::uint64_t seed, const Sizes& sizes);

/// One orchestrated Fig 6 job under a fresh spool and store directory.
struct JobRun {
  roleshare::orch::JobStats stats;
  double wall_s = 0.0;
  std::size_t spool_bytes = 0;  // Σ partial bytes the coordinator folded
  std::string spool_dir;        // worker span files land here when traced
  std::string series_path;
};
JobRun run_fig6_job(const Options& options, std::size_t job_index,
                    Tracer* tracer);

/// The traced run's layer passes; each writes its metrics and checks to
/// `records` and its spans to `spans_path`.
void trace_fig3_layers(const Options& options, Records& records,
                       const std::string& spans_path);
void trace_longhorizon_layers(const Options& options, Records& records,
                              const std::string& spans_path);
void trace_fig6_layers(const Options& options, Records& records,
                       const std::string& spans_path);

/// Prints the per-span self-time table of a finished pass to stdout.
void print_self_times(const char* pass, const Tracer& tracer);

}  // namespace rsbench
