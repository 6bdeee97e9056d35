// Shard orchestration coordinator (DESIGN.md §11): splits a bench's run
// range [0, runs) into fixed-size windows, streams ASSIGNs to worker
// agents over the wire protocol (orch/wire.hpp), and folds each finished
// window's partial document — in window order, through the caller's fold
// callback — into the final series. Failure paths are first-class:
//
//   worker death   (EOF / reaped exit) -> the leased window is requeued,
//                  resuming from the dead attempt's last advertised
//                  checkpoint; a replacement worker is spawned while
//                  work remains.
//   lease expiry   a window leased longer than lease_seconds is requeued
//                  to another worker. The straggler is NOT killed: each
//                  attempt spools to its own private file
//                  (w<i>.a<n>.partial), so whichever attempt finishes
//                  first wins and the loser's DONE is discarded as a
//                  duplicate.
//   FAIL message   the attempt errored but the worker lives: requeue the
//                  window, hand the worker its next assignment.
//   attempt cap    a window that fails max_attempts times aborts the job
//                  loudly (the error is systemic, not transient).
//
// Because every re-issued window re-executes through the worker's
// run_sharded_panels, a finished window that was already published to
// the result store is served from cache, not recomputed — retries are
// cheap by construction. The coordinator itself stays generic: it moves
// bytes and windows, and the bench layer (bench/bench_drivers.hpp)
// supplies the typed fold/finalize callbacks, which is what keeps the
// orchestrated series byte-identical to a single-process run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>

namespace roleshare::orch {

struct JobConfig {
  std::size_t runs = 0;     // total run range [0, runs)
  std::size_t window = 0;   // runs per assignment window (last may be short)
  std::size_t workers = 1;  // worker agents to keep alive
  std::string socket_path;  // Unix socket the workers dial
  std::string spool_dir;    // per-attempt partial files; run creates it
  /// Seconds a window may stay leased without progress before it is
  /// re-issued to another worker; 0 disables the deadline (death and
  /// FAIL still requeue).
  double lease_seconds = 0.0;
  /// A window aborts the job after this many failed/expired attempts.
  std::size_t max_attempts = 5;
  /// Fault injection: after this window first folds, re-enqueue it once
  /// more (it is already folded, so the duplicate result is discarded —
  /// the point is driving the worker's store-hit path). -1 = off.
  long long reissue_window = -1;
  /// Print per-message protocol traffic.
  bool verbose = false;
};

/// The bench-specific half of a job. `config_echo` is the expected HELLO
/// payload (the shard-document header dump); a worker echoing anything
/// else is running a drifted config and the job aborts. `fold` receives
/// each finished window's partial-document bytes IN WINDOW ORDER;
/// `finalize` runs once after the last fold.
struct JobCallbacks {
  std::string config_echo;
  std::function<void(const std::string& bytes, std::size_t run_begin,
                     std::size_t run_end, const std::string& origin)>
      fold;
  std::function<void()> finalize;
};

struct JobStats {
  std::size_t windows = 0;
  std::size_t folded = 0;
  std::size_t retries = 0;            // requeues (death/expiry/FAIL)
  std::size_t store_hits = 0;         // DONEs served from the result store
  std::size_t worker_deaths = 0;      // EOFs / abnormal exits observed
  std::size_t respawns = 0;           // replacement workers spawned
  std::size_t duplicate_results = 0;  // late/straggler DONEs discarded
  std::size_t checkpoints = 0;        // PROGRESS messages received
};

/// Spawns one worker agent process; receives the worker id the agent
/// must HELLO with, returns its pid. The CLI re-execs itself with
/// --worker; tests fork a run_worker call directly.
using SpawnWorkerFn = std::function<pid_t(std::uint32_t worker_id)>;

/// Runs the job to completion: listens, spawns config.workers agents,
/// schedules every window, folds in order, shuts the fleet down, reaps
/// it, calls finalize. Throws std::runtime_error on unrecoverable
/// failures (config-echo drift, attempt cap, corrupt spool).
JobStats run_coordinator(const JobConfig& config,
                         const JobCallbacks& callbacks,
                         const SpawnWorkerFn& spawn_worker);

}  // namespace roleshare::orch
