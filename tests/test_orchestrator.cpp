// orch coordinator + worker agents, end to end (DESIGN.md §11): real
// forked workers over a real Unix socket, driving a small fig3 bench
// through the type-erased ShardableBench surface. The contract under
// test is the ISSUE's acceptance bar — the orchestrated series document
// is BYTE-identical to a single-process run, including under injected
// worker kills, dropped assignments and re-issued windows — plus the
// loud-failure paths (attempt cap, config drift).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "orch/coordinator.hpp"
#include "orch/spawn.hpp"
#include "orch/wire.hpp"
#include "orch/worker.hpp"
#include "shard_util.hpp"

namespace {

using roleshare::bench::ShardableBench;
using roleshare::bench::ShardKnobs;

// Owns the argv a bench factory parses. The factories and arg helpers
// take (int, char**) exactly like main, so tests fabricate one.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

// A fig3 run small enough for a unit test but big enough to split into
// several windows across several workers. threads=1 keeps the forked
// children single-threaded (fork + live thread pools do not mix).
Argv small_fig3_argv() {
  return Argv({"test_orchestrator", "--nodes=60", "--runs=6", "--rounds=5",
               "--threads=1", "--inner-threads=1"});
}

ShardableBench small_fig3() {
  Argv a = small_fig3_argv();
  return roleshare::bench::make_shardable_bench("fig3_defection", a.argc(),
                                                a.argv());
}

// Short-lived scratch dir under /tmp — Unix socket paths have a ~107
// byte kernel cap, so the (long) gtest TempDir is not usable here. The
// tree goes when the test ends. Forked workers leave through hard_exit
// (_exit), which runs no destructor, so only the test process removes it.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = "/tmp/orchtestXXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed");
    path_ = std::move(tmpl);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The single-process reference: execute the whole run range in-process,
// fold the one resulting partial document, write the series. This is
// the exact encode/fold/write path merge_partials trusts, which the
// existing shard tests pin as byte-identical to the plain bench binary.
void write_reference_series(const std::string& dir,
                            const std::string& series_out) {
  ShardableBench bench = small_fig3();
  ShardKnobs knobs;
  knobs.runs = bench.runs;
  knobs.partial_out = dir + "/reference.partial";
  const roleshare::orch::WindowOutcome outcome = bench.run_window(knobs);
  ASSERT_TRUE(outcome.complete);
  bench.fold(roleshare::bench::read_text_file(knobs.partial_out), 0,
             bench.runs, "reference");
  bench.write_series(series_out);
}

struct Injection {
  std::size_t kill_after_runs = 0;   // worker 0 only
  std::size_t drop_assignments = 0;  // worker 0 only
  std::size_t checkpoint_every = 0;
  /// Any attempt >= 2 throws from the runner. With no other fault
  /// injection the only attempt 2 in a job is the injected re-issue of
  /// an already-folded window, so this makes the re-execution FAIL.
  bool fail_reissued = false;
  std::string store_dir;
};

// The test-side twin of the orchestrate CLI's spawn closure: fork a
// child that rebuilds the same bench from the same argv and runs the
// worker agent loop against `socket_path`. Fault injection targets
// worker 0 only, so respawned replacements finish the job.
roleshare::orch::SpawnWorkerFn make_spawner(const std::string& socket_path,
                                            const Injection& injection) {
  return [socket_path, injection](std::uint32_t worker_id) {
    return roleshare::orch::spawn_child([socket_path, injection,
                                         worker_id]() {
      ShardableBench mine = small_fig3();
      roleshare::orch::WorkerOptions options;
      options.socket_path = socket_path;
      options.worker_id = worker_id;
      if (worker_id == 0) {
        options.kill_after_runs = injection.kill_after_runs;
        options.drop_assignments = injection.drop_assignments;
      }
      roleshare::orch::WindowRunner runner;
      runner.config_echo = mine.config_echo;
      runner.run =
          [&](const roleshare::orch::WindowAssignment& assignment,
              std::size_t stop_after,
              const std::function<void(std::size_t)>& on_checkpoint) {
            if (injection.fail_reissued && assignment.attempt >= 2)
              throw std::runtime_error("injected re-execution failure");
            ShardKnobs knobs;
            knobs.runs = mine.runs;
            knobs.shard = roleshare::sim::RunShard{assignment.run_begin,
                                                   assignment.run_end};
            knobs.partial_out = assignment.spool_path;
            knobs.partial_in = assignment.resume_path;
            knobs.checkpoint_every = injection.checkpoint_every;
            knobs.stop_after = stop_after;
            knobs.store_dir = injection.store_dir;
            knobs.on_checkpoint = on_checkpoint;
            return mine.run_window(knobs);
          };
      return roleshare::orch::run_worker(options, runner);
    });
  };
}

// Runs a full orchestrated job in `dir` and writes `series_out`.
roleshare::orch::JobStats run_job(const std::string& dir,
                                  const std::string& series_out,
                                  roleshare::orch::JobConfig job,
                                  const Injection& injection) {
  ShardableBench bench = small_fig3();
  job.runs = bench.runs;
  job.socket_path = dir + "/orch.sock";
  if (job.spool_dir.empty()) job.spool_dir = dir;
  roleshare::orch::JobCallbacks callbacks;
  callbacks.config_echo = bench.config_echo;
  callbacks.fold = bench.fold;
  callbacks.finalize = [&bench, series_out]() {
    bench.write_series(series_out);
  };
  return roleshare::orch::run_coordinator(job, callbacks,
                                          make_spawner(job.socket_path,
                                                       injection));
}

void expect_byte_identical(const std::string& dir,
                           const std::string& orchestrated) {
  const std::string reference_path = dir + "/reference_series.json";
  write_reference_series(dir, reference_path);
  const std::string expected =
      roleshare::bench::read_text_file(reference_path);
  const std::string actual = roleshare::bench::read_text_file(orchestrated);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
}

TEST(Orchestrator, MultiWorkerSeriesIsByteIdenticalToSingleProcess) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  roleshare::orch::JobConfig job;
  job.window = 2;  // 6 runs -> 3 windows
  job.workers = 3;
  const roleshare::orch::JobStats stats =
      run_job(dir, dir + "/orch_series.json", job, Injection{});
  EXPECT_EQ(stats.windows, 3u);
  EXPECT_EQ(stats.folded, 3u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  expect_byte_identical(dir, dir + "/orch_series.json");
}

TEST(Orchestrator, KilledWorkerResumesFromCheckpointByteIdentically) {
  // Worker 0 _exit(9)s after two runs — mid-window, because its last
  // checkpoint landed inside [0, 3). The replacement must resume from
  // the advertised checkpoint and the final series must not change by
  // one byte. One worker makes the kill certain: with two, worker 1 could
  // finish both windows before worker 0 sent HELLO. The replacement gets
  // a fresh id, so it carries no injection and finishes the job;
  // MultiWorkerSeriesIsByteIdenticalToSingleProcess covers several
  // workers.
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  Injection injection;
  injection.kill_after_runs = 2;
  injection.checkpoint_every = 1;
  roleshare::orch::JobConfig job;
  job.window = 3;  // 6 runs -> 2 windows
  job.workers = 1;
  const roleshare::orch::JobStats stats =
      run_job(dir, dir + "/orch_series.json", job, injection);
  EXPECT_EQ(stats.folded, 2u);
  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.respawns, 1u);
  EXPECT_GE(stats.checkpoints, 1u);
  expect_byte_identical(dir, dir + "/orch_series.json");
}

TEST(Orchestrator, ReissuedWindowIsServedFromStoreNotRecomputed) {
  // After window 1 folds, the coordinator re-issues it (fault
  // injection). The first attempt published the finished partial to the
  // result store, so the re-execution must be a cache hit whose
  // duplicate DONE is discarded — the acceptance criterion that retries
  // are cheap by construction.
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  Injection injection;
  injection.store_dir = dir + "/store";
  roleshare::orch::JobConfig job;
  job.window = 2;  // 6 runs -> 3 windows
  job.workers = 2;
  job.reissue_window = 1;
  const roleshare::orch::JobStats stats =
      run_job(dir, dir + "/orch_series.json", job, injection);
  EXPECT_EQ(stats.folded, 3u);
  EXPECT_GE(stats.store_hits, 1u);
  EXPECT_EQ(stats.duplicate_results, 1u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  expect_byte_identical(dir, dir + "/orch_series.json");
}

TEST(Orchestrator, FailedReissueDoesNotHangTheJob) {
  // The injected re-execution of an already-folded window FAILs (its
  // runner throws instead of producing a duplicate DONE). The
  // coordinator must stop waiting for that duplicate: leaking the
  // outstanding-reissue count would leave complete() false forever and
  // the job polling silently after every window folded.
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  Injection injection;
  injection.fail_reissued = true;
  roleshare::orch::JobConfig job;
  job.window = 2;  // 6 runs -> 3 windows
  job.workers = 2;
  job.reissue_window = 1;
  const roleshare::orch::JobStats stats =
      run_job(dir, dir + "/orch_series.json", job, injection);
  EXPECT_EQ(stats.folded, 3u);
  EXPECT_EQ(stats.duplicate_results, 0u);
  // The failed re-execution must not count as (or trigger) a retry —
  // the window is already folded, there is nothing to requeue.
  EXPECT_EQ(stats.retries, 0u);
  expect_byte_identical(dir, dir + "/orch_series.json");
}

// Blocking read of one message off a raw scripted-worker socket.
roleshare::orch::Message read_one(int fd,
                                  roleshare::orch::MessageBuffer& buffer) {
  while (true) {
    if (auto m = buffer.next()) return *m;
    char chunk[4096];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got <= 0) throw std::runtime_error("coordinator closed the socket");
    buffer.feed(std::string_view(chunk, static_cast<std::size_t>(got)));
  }
}

TEST(Orchestrator, StragglerDeathDoesNotStealTheReissuedLease) {
  // Worker 0 takes the only window, goes silent past the lease deadline
  // (so the window is re-issued to worker 1 as attempt 2), then sends a
  // late superseded PROGRESS and dies. Neither event may touch attempt
  // 2's lease: the stale PROGRESS must not renew it, and the stale EOF
  // must not requeue the window a third time — that would inflate the
  // attempt count toward max_attempts and spawn a pointless concurrent
  // attempt 3 while attempt 2 is actively finishing the job.
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  const std::string socket_path = dir + "/orch.sock";
  ShardableBench bench = small_fig3();
  roleshare::orch::JobConfig job;
  job.runs = bench.runs;
  job.window = bench.runs;  // one window, so the lease story is exact
  job.workers = 2;
  job.lease_seconds = 0.8;
  job.max_attempts = 4;  // headroom: a spurious requeue shows in stats,
                         // it must not be masked by an attempt-cap abort
  job.socket_path = socket_path;
  job.spool_dir = dir;
  const roleshare::orch::SpawnWorkerFn spawn = [&](std::uint32_t worker_id) {
    if (worker_id == 0) {
      // The scripted straggler: HELLO, take the ASSIGN, stall past the
      // lease, late-checkpoint the superseded attempt, die without DONE.
      return roleshare::orch::spawn_child([socket_path]() {
        ShardableBench mine = small_fig3();
        const int fd = roleshare::orch::connect_unix(socket_path);
        roleshare::orch::MessageBuffer buffer("coordinator");
        roleshare::orch::send_message(
            fd, roleshare::orch::hello(0, mine.config_echo));
        const roleshare::orch::Message assignment = read_one(fd, buffer);
        if (assignment.type != roleshare::orch::MsgType::Assign) return 1;
        ::usleep(1200 * 1000);  // lease expired ~0.4s ago; re-issued
        try {
          roleshare::orch::send_message(
              fd, roleshare::orch::progress(assignment.window_index,
                                            assignment.attempt, 0));
        } catch (const std::exception&) {
          // Coordinator already gone — fine, the job finished without us.
        }
        ::usleep(100 * 1000);
        ::close(fd);
        return 0;
      });
    }
    // Worker 1 (and any respawn): a real runner that connects after the
    // straggler holds the lease, heartbeats its own attempt through a
    // long startup, and finishes only after the straggler's EOF landed.
    return roleshare::orch::spawn_child([socket_path, worker_id]() {
      ::usleep(100 * 1000);
      ShardableBench mine = small_fig3();
      roleshare::orch::WorkerOptions options;
      options.socket_path = socket_path;
      options.worker_id = worker_id;
      roleshare::orch::WindowRunner runner;
      runner.config_echo = mine.config_echo;
      runner.run =
          [&](const roleshare::orch::WindowAssignment& assignment,
              std::size_t stop_after,
              const std::function<void(std::size_t)>& on_checkpoint) {
            for (int i = 0; i < 6; ++i) {
              ::usleep(150 * 1000);
              on_checkpoint(assignment.run_begin);  // keep OUR lease alive
            }
            ShardKnobs knobs;
            knobs.runs = mine.runs;
            knobs.shard = roleshare::sim::RunShard{assignment.run_begin,
                                                   assignment.run_end};
            knobs.partial_out = assignment.spool_path;
            knobs.partial_in = assignment.resume_path;
            knobs.stop_after = stop_after;
            knobs.on_checkpoint = on_checkpoint;
            return mine.run_window(knobs);
          };
      return roleshare::orch::run_worker(options, runner);
    });
  };
  roleshare::orch::JobCallbacks callbacks;
  callbacks.config_echo = bench.config_echo;
  callbacks.fold = bench.fold;
  const std::string series_out = dir + "/orch_series.json";
  callbacks.finalize = [&bench, series_out]() {
    bench.write_series(series_out);
  };
  const roleshare::orch::JobStats stats =
      roleshare::orch::run_coordinator(job, callbacks, spawn);
  EXPECT_EQ(stats.folded, 1u);
  // Exactly ONE requeue: the lease expiry that moved the window from
  // the straggler to worker 1. The straggler's late EOF must not add a
  // second one (nor hand the window to a third attempt).
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.duplicate_results, 0u);
  EXPECT_GE(stats.checkpoints, 1u);
  expect_byte_identical(dir, series_out);
}

TEST(Orchestrator, DroppedAssignmentExpiresLeaseAndReissues) {
  // Worker 0 silently swallows its first ASSIGN. The lease must expire
  // and the window must complete on the other worker — straggler-safe
  // because each attempt spools to its own file.
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  Injection injection;
  injection.drop_assignments = 1;
  roleshare::orch::JobConfig job;
  job.window = 3;  // 6 runs -> 2 windows
  job.workers = 2;
  job.lease_seconds = 0.5;
  const roleshare::orch::JobStats stats =
      run_job(dir, dir + "/orch_series.json", job, injection);
  EXPECT_EQ(stats.folded, 2u);
  EXPECT_GE(stats.retries, 1u);
  expect_byte_identical(dir, dir + "/orch_series.json");
}

// The coordinator creates the spool directory once it has accepted the
// job, so a refused job leaves none behind and the caller need not make
// it first.
TEST(Orchestrator, AcceptedJobCreatesItsSpoolDirectory) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  roleshare::orch::JobConfig job;
  job.window = 3;
  job.workers = 2;
  job.spool_dir = dir + "/spool";
  const std::string series = dir + "/orchestrated_series.json";
  run_job(dir, series, job, Injection{});
  EXPECT_EQ(::access(job.spool_dir.c_str(), F_OK), 0);
  expect_byte_identical(dir, series);
}

// A re-issue of a window past the job's last one would never fire, so a
// fault-injection run meant to exercise it would check nothing. The job
// must refuse it up front, naming the window and the window count,
// before it binds the socket or forks a worker.
TEST(Orchestrator, ReissuePastTheLastWindowIsRefused) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  roleshare::orch::JobConfig job;
  job.runs = 4;
  job.window = 2;  // 4 runs -> windows 0 and 1
  job.workers = 1;
  job.reissue_window = 2;
  job.socket_path = dir + "/orch.sock";
  job.spool_dir = dir;
  roleshare::orch::JobCallbacks callbacks;
  callbacks.config_echo = "synthetic";
  callbacks.fold = [](const std::string&, std::size_t, std::size_t,
                      const std::string&) {};
  callbacks.finalize = []() {};
  const roleshare::orch::SpawnWorkerFn spawn = [](std::uint32_t) -> pid_t {
    throw std::runtime_error("a worker was spawned");
  };
  try {
    roleshare::orch::run_coordinator(job, callbacks, spawn);
    FAIL() << "a reissue window past the last window was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reissue window 2"), std::string::npos) << what;
    EXPECT_NE(what.find("2 windows"), std::string::npos) << what;
  }
  EXPECT_NE(::access(job.socket_path.c_str(), F_OK), 0)
      << "the socket was bound before the refusal";
}

// A worker whose runner always throws: every attempt FAILs, so the
// window must burn max_attempts and abort the job loudly.
TEST(Orchestrator, AttemptCapAbortsTheJob) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  const std::string socket_path = dir + "/orch.sock";
  roleshare::orch::JobConfig job;
  job.runs = 2;
  job.window = 2;
  job.workers = 1;
  job.max_attempts = 2;
  job.socket_path = socket_path;
  job.spool_dir = dir;
  roleshare::orch::JobCallbacks callbacks;
  callbacks.config_echo = "synthetic";
  callbacks.fold = [](const std::string&, std::size_t, std::size_t,
                      const std::string&) {};
  callbacks.finalize = []() {};
  const roleshare::orch::SpawnWorkerFn spawn = [&](std::uint32_t worker_id) {
    return roleshare::orch::spawn_child([socket_path, worker_id]() {
      roleshare::orch::WorkerOptions options;
      options.socket_path = socket_path;
      options.worker_id = worker_id;
      roleshare::orch::WindowRunner runner;
      runner.config_echo = "synthetic";
      runner.run = [](const roleshare::orch::WindowAssignment&, std::size_t,
                      const std::function<void(std::size_t)>&)
          -> roleshare::orch::WindowOutcome {
        throw std::runtime_error("synthetic permanent failure");
      };
      return roleshare::orch::run_worker(options, runner);
    });
  };
  try {
    roleshare::orch::run_coordinator(job, callbacks, spawn);
    FAIL() << "attempt cap did not abort the job";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("failed 2 attempts"),
              std::string::npos)
        << e.what();
  }
}

// A worker compiled against a drifted config (different HELLO echo)
// must abort the job before any window is assigned to it: the worker
// would compute a DIFFERENT experiment, and folding its partials would
// silently corrupt the series.
TEST(Orchestrator, ConfigEchoDriftAbortsTheJob) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path();
  const std::string socket_path = dir + "/orch.sock";
  roleshare::orch::JobConfig job;
  job.runs = 2;
  job.window = 2;
  job.workers = 1;
  job.socket_path = socket_path;
  job.spool_dir = dir;
  roleshare::orch::JobCallbacks callbacks;
  callbacks.config_echo = "coordinator config";
  callbacks.fold = [](const std::string&, std::size_t, std::size_t,
                      const std::string&) {};
  callbacks.finalize = []() {};
  const roleshare::orch::SpawnWorkerFn spawn = [&](std::uint32_t worker_id) {
    return roleshare::orch::spawn_child([socket_path, worker_id]() {
      roleshare::orch::WorkerOptions options;
      options.socket_path = socket_path;
      options.worker_id = worker_id;
      roleshare::orch::WindowRunner runner;
      runner.config_echo = "drifted worker config";
      runner.run = [](const roleshare::orch::WindowAssignment&, std::size_t,
                      const std::function<void(std::size_t)>&)
          -> roleshare::orch::WindowOutcome {
        return {};
      };
      return roleshare::orch::run_worker(options, runner);
    });
  };
  try {
    roleshare::orch::run_coordinator(job, callbacks, spawn);
    FAIL() << "config drift did not abort the job";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("drifted"), std::string::npos)
        << e.what();
  }
}

}  // namespace
