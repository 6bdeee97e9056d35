#include "orch/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "orch/spawn.hpp"
#include "orch/wire.hpp"
#include "util/atomic_file.hpp"

namespace roleshare::orch {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class WindowState { Queued, Leased, Spooled, Folded };

struct Window {
  std::size_t begin = 0;
  std::size_t end = 0;
  WindowState state = WindowState::Queued;
  std::uint32_t attempts = 0;  // assignments issued so far
  /// Best checkpoint a dead/expired attempt left behind; the next
  /// attempt resumes from it instead of starting cold.
  std::string resume_path;
  std::uint64_t resume_cursor = 0;
  std::string result_path;  // finished document spool (state >= Spooled)
  double lease_deadline = 0.0;  // 0 = no deadline armed
  /// Attempt number the current lease was issued for. A straggler from
  /// an older attempt (late EOF, FAIL, PROGRESS) must not requeue or
  /// renew a lease that has since been re-issued to someone else.
  std::uint32_t lease_attempt = 0;
};

struct Conn {
  int fd = -1;
  MessageBuffer buffer;
  bool helloed = false;
  std::uint32_t worker_id = 0;
  long long window = -1;  // leased window index, -1 = idle
  std::uint32_t attempt = 0;  // attempt number of the current assignment
  bool reissue = false;   // current assignment is injected re-execution
  explicit Conn(int fd_, std::string origin)
      : fd(fd_), buffer(std::move(origin)) {}
};

class Job {
 public:
  Job(const JobConfig& config, const JobCallbacks& callbacks,
      const SpawnWorkerFn& spawn_worker)
      : config_(config), callbacks_(callbacks), spawn_worker_(spawn_worker) {
    if (config_.runs == 0 || config_.window == 0 || config_.workers == 0)
      throw std::invalid_argument(
          "orch: runs, window and workers must all be positive");
    if (config_.socket_path.empty() || config_.spool_dir.empty())
      throw std::invalid_argument(
          "orch: socket_path and spool_dir are required");
    for (std::size_t begin = 0; begin < config_.runs;
         begin += config_.window) {
      Window w;
      w.begin = begin;
      w.end = std::min(begin + config_.window, config_.runs);
      windows_.push_back(w);
    }
    if (config_.reissue_window >= static_cast<long long>(windows_.size()))
      throw std::invalid_argument(
          "orch: reissue window " + std::to_string(config_.reissue_window) +
          " is past the job's " + std::to_string(windows_.size()) + " windows");
    stats_.windows = windows_.size();
  }

  JobStats run() {
    // Only an accepted job gets a spool directory (a refused one leaves
    // nothing behind); the default socket lives in it.
    std::filesystem::create_directories(config_.spool_dir);
    listen_fd_ = listen_unix(config_.socket_path);
    try {
      for (std::size_t i = 0; i < config_.workers; ++i) spawn(false);
      loop();
    } catch (...) {
      // Never leave orphans behind an exception: the fleet dies with
      // the job.
      for (auto& [pid, alive] : children_)
        if (alive) ::kill(pid, SIGKILL);
      cleanup(true);
      throw;
    }
    shutdown_fleet();
    cleanup(false);
    callbacks_.finalize();
    return stats_;
  }

 private:
  bool complete() const {
    return folded_ == windows_.size() && reissue_queue_.empty() &&
           outstanding_reissues_ == 0;
  }

  bool work_remains() const {
    if (!reissue_queue_.empty() || outstanding_reissues_ > 0) return true;
    for (const Window& w : windows_)
      if (w.state == WindowState::Queued || w.state == WindowState::Leased)
        return true;
    return false;
  }

  void spawn(bool is_respawn) {
    const std::uint32_t id = next_worker_id_++;
    const pid_t pid = spawn_worker_(id);
    children_[pid] = true;
    live_workers_++;
    if (is_respawn) {
      stats_.respawns++;
      std::printf("[orch] respawned worker %u (pid %d)\n", id,
                  static_cast<int>(pid));
    }
  }

  std::string spool_path_for(std::size_t index, std::uint32_t attempt) const {
    return config_.spool_dir + "/w" + std::to_string(index) + ".a" +
           std::to_string(attempt) + ".partial";
  }

  /// Requeues a leased window after a death / expiry / FAIL, but only
  /// when `attempt` still owns the lease — a straggler from a superseded
  /// attempt dying late must not yank the window away from (or inflate
  /// the attempt count of) the replacement that is actively running it.
  /// The cap is checked here: a window burning max_attempts assignments
  /// is a systemic failure, not bad luck.
  void requeue(std::size_t index, std::uint32_t attempt,
               const std::string& reason) {
    Window& w = windows_[index];
    if (w.state != WindowState::Leased) return;
    if (w.lease_attempt != attempt) return;
    if (w.attempts >= config_.max_attempts)
      throw std::runtime_error(
          "orch: window " + std::to_string(index) + " (runs [" +
          std::to_string(w.begin) + ", " + std::to_string(w.end) +
          ")) failed " + std::to_string(w.attempts) + " attempts, last: " +
          reason);
    w.state = WindowState::Queued;
    w.lease_deadline = 0.0;
    stats_.retries++;
    const std::string resume_note =
        w.resume_path.empty()
            ? std::string()
            : ", will resume from checkpoint at run " +
                  std::to_string(w.resume_cursor);
    std::printf("[orch] requeueing window %zu (runs [%zu, %zu)): %s%s\n",
                index, w.begin, w.end, reason.c_str(), resume_note.c_str());
  }

  /// A send to `conn` hit a dead peer (EPIPE): drop the connection now
  /// instead of waiting for its EOF — the fd is closed, so the EOF would
  /// never arrive. reap_children respawns a replacement while work
  /// remains.
  void drop_dead_conn(Conn& conn, const std::exception& error) {
    std::printf("[orch] worker %u unreachable, dropping connection: %s\n",
                conn.worker_id, error.what());
    ::close(conn.fd);
    conn.fd = -1;
    conn.window = -1;
    conn.reissue = false;
  }

  /// Hands `conn` its next assignment: injected re-executions first,
  /// then the lowest queued window. Returns false when nothing is
  /// assignable (the worker stays idle, blocked on its socket). A worker
  /// that died before the ASSIGN reached it is dropped and the window
  /// put back for the next idle worker — assign_idle keeps iterating.
  bool assign_to(Conn& conn) {
    if (!reissue_queue_.empty()) {
      const std::size_t index = reissue_queue_.back();
      reissue_queue_.pop_back();
      Window& w = windows_[index];
      w.attempts++;
      try {
        send_message(conn.fd,
                     assign(static_cast<std::uint32_t>(index), w.attempts,
                            w.begin, w.end, spool_path_for(index, w.attempts),
                            std::string()));
      } catch (const std::exception& e) {
        w.attempts--;
        reissue_queue_.push_back(index);
        drop_dead_conn(conn, e);
        return true;
      }
      conn.window = static_cast<long long>(index);
      conn.attempt = w.attempts;
      conn.reissue = true;
      outstanding_reissues_++;
      std::printf("[orch] re-issued already-folded window %zu to worker %u "
                  "(fault injection)\n",
                  index, conn.worker_id);
      return true;
    }
    for (std::size_t index = 0; index < windows_.size(); ++index) {
      Window& w = windows_[index];
      if (w.state != WindowState::Queued) continue;
      w.attempts++;
      try {
        send_message(conn.fd,
                     assign(static_cast<std::uint32_t>(index), w.attempts,
                            w.begin, w.end, spool_path_for(index, w.attempts),
                            w.resume_path));
      } catch (const std::exception& e) {
        w.attempts--;
        drop_dead_conn(conn, e);
        return true;
      }
      w.state = WindowState::Leased;
      w.lease_attempt = w.attempts;
      if (config_.lease_seconds > 0)
        w.lease_deadline = now_seconds() + config_.lease_seconds;
      conn.window = static_cast<long long>(index);
      conn.attempt = w.attempts;
      conn.reissue = false;
      if (config_.verbose)
        std::printf("[orch] assigned window %zu (runs [%zu, %zu), attempt "
                    "%u) to worker %u\n",
                    index, w.begin, w.end, w.attempts, conn.worker_id);
      return true;
    }
    return false;
  }

  void assign_idle() {
    for (Conn& conn : conns_) {
      if (conn.fd < 0 || !conn.helloed || conn.window >= 0) continue;
      if (!assign_to(conn)) break;
    }
  }

  /// Folds every spooled window at the fold frontier, in window order —
  /// the merge contiguity contract (sim::PartialEnvelope::check_merge)
  /// makes any other order an error.
  void try_folds() {
    while (next_fold_ < windows_.size() &&
           windows_[next_fold_].state == WindowState::Spooled) {
      Window& w = windows_[next_fold_];
      const std::string origin = "window " + std::to_string(next_fold_) +
                                 " spool " + w.result_path;
      callbacks_.fold(util::read_file(w.result_path), w.begin, w.end, origin);
      w.state = WindowState::Folded;
      folded_++;
      stats_.folded++;
      if (config_.reissue_window >= 0 && !reissue_armed_ &&
          static_cast<std::size_t>(config_.reissue_window) == next_fold_) {
        reissue_armed_ = true;
        reissue_queue_.push_back(next_fold_);
      }
      next_fold_++;
    }
  }

  void handle_message(Conn& conn, const Message& msg) {
    if ((msg.type == MsgType::Progress || msg.type == MsgType::Done ||
         msg.type == MsgType::Fail) &&
        msg.window_index >= windows_.size()) {
      throw std::runtime_error(
          "orch: worker " + std::to_string(conn.worker_id) + " sent " +
          orch::to_string(msg.type) + " for window " +
          std::to_string(msg.window_index) + " but the job only has " +
          std::to_string(windows_.size()));
    }
    switch (msg.type) {
      case MsgType::Hello: {
        if (msg.config_echo != callbacks_.config_echo)
          throw std::runtime_error(
              "orch: worker " + std::to_string(msg.worker_id) +
              " computed a different config than the coordinator — the "
              "worker's argv has drifted. Coordinator header: " +
              callbacks_.config_echo + " | worker echo: " + msg.config_echo);
        conn.helloed = true;
        conn.worker_id = msg.worker_id;
        if (config_.verbose)
          std::printf("[orch] worker %u connected, config echo verified\n",
                      msg.worker_id);
        assign_to(conn);
        break;
      }
      case MsgType::Progress: {
        stats_.checkpoints++;
        Window& w = windows_[msg.window_index];
        if (msg.cursor > w.resume_cursor) {
          w.resume_cursor = msg.cursor;
          w.resume_path = spool_path_for(msg.window_index, msg.attempt);
        }
        // Only the attempt that holds the lease renews it: a superseded
        // straggler that keeps checkpointing must not keep a stuck
        // replacement's lease alive forever.
        if (w.state == WindowState::Leased && w.lease_deadline > 0 &&
            msg.attempt == w.lease_attempt)
          w.lease_deadline = now_seconds() + config_.lease_seconds;
        if (config_.verbose)
          std::printf("[orch] worker %u checkpointed window %u at run "
                      "%llu\n",
                      conn.worker_id, msg.window_index,
                      static_cast<unsigned long long>(msg.cursor));
        break;
      }
      case MsgType::Done: {
        Window& w = windows_[msg.window_index];
        if (msg.store_hit) stats_.store_hits++;
        if (w.state == WindowState::Spooled ||
            w.state == WindowState::Folded) {
          // A straggler (or injected re-execution) finished a window
          // someone else already delivered — discard, never double-fold.
          stats_.duplicate_results++;
          if (conn.reissue && conn.window ==
                                  static_cast<long long>(msg.window_index))
            outstanding_reissues_--;
          std::printf("[orch] discarding duplicate result for window %u "
                      "from worker %u (attempt %u%s)\n",
                      msg.window_index, conn.worker_id, msg.attempt,
                      msg.store_hit ? ", served from store" : "");
        } else {
          w.state = WindowState::Spooled;
          w.result_path = msg.spool_path;
          w.lease_deadline = 0.0;
          if (config_.verbose)
            std::printf("[orch] window %u done by worker %u (%llu bytes%s)"
                        "\n",
                        msg.window_index, conn.worker_id,
                        static_cast<unsigned long long>(msg.partial_bytes),
                        msg.store_hit ? ", store hit" : "");
          try_folds();
        }
        conn.window = -1;
        conn.reissue = false;
        assign_to(conn);
        break;
      }
      case MsgType::Fail: {
        std::printf("[orch] worker %u FAILed window %u attempt %u: %s\n",
                    conn.worker_id, msg.window_index, msg.attempt,
                    msg.error.c_str());
        const long long idx = conn.window;
        const std::uint32_t attempt = conn.attempt;
        const bool was_reissue = conn.reissue;
        conn.window = -1;
        conn.reissue = false;
        if (was_reissue && idx >= 0) {
          // Mirror handle_eof: the injected re-execution failed, but the
          // window is already folded — nothing to requeue (it is not
          // Leased), just stop waiting for the duplicate DONE or
          // complete() never becomes true.
          outstanding_reissues_--;
        } else if (idx >= 0) {
          requeue(static_cast<std::size_t>(idx), attempt,
                  "FAIL: " + msg.error);
        }
        assign_to(conn);
        break;
      }
      case MsgType::Assign:
      case MsgType::Shutdown:
        throw std::runtime_error(
            std::string("orch: coordinator received a ") +
            orch::to_string(msg.type) + " message — workers never send it");
    }
  }

  void handle_eof(Conn& conn) {
    if (conn.buffer.pending_bytes() > 0)
      std::printf("[orch] worker %u died mid-message (%zu stray bytes)\n",
                  conn.worker_id, conn.buffer.pending_bytes());
    const long long idx = conn.window;
    ::close(conn.fd);
    conn.fd = -1;
    if (conn.reissue && idx >= 0) {
      // The injected re-execution died; nothing is lost (the window is
      // already folded) — just stop waiting for its duplicate DONE.
      outstanding_reissues_--;
    } else if (idx >= 0) {
      requeue(static_cast<std::size_t>(idx), conn.attempt,
              "worker " + std::to_string(conn.worker_id) +
                  " disconnected mid-window");
    }
  }

  void reap_children() {
    for (auto& [pid, alive] : children_) {
      if (!alive) continue;
      int status = 0;
      if (!try_reap(pid, status)) continue;
      alive = false;
      live_workers_--;
      if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
        stats_.worker_deaths++;
        std::printf("[orch] worker pid %d died (%s)\n",
                    static_cast<int>(pid), describe_exit(status).c_str());
      }
    }
    // Keep the fleet at strength while work remains. The cap bounds a
    // pathological crash loop (a worker that dies at startup forever).
    while (work_remains() && live_workers_ < config_.workers) {
      if (stats_.respawns >= config_.max_attempts * config_.workers)
        throw std::runtime_error(
            "orch: respawn cap reached (" + std::to_string(stats_.respawns) +
            " replacements) — workers are dying faster than they work");
      spawn(true);
    }
  }

  void expire_leases() {
    if (config_.lease_seconds <= 0) return;
    const double now = now_seconds();
    for (std::size_t index = 0; index < windows_.size(); ++index) {
      Window& w = windows_[index];
      if (w.state != WindowState::Leased || w.lease_deadline <= 0 ||
          now < w.lease_deadline)
        continue;
      requeue(index, w.lease_attempt,
              "lease expired after " + std::to_string(config_.lease_seconds) +
                  "s without progress (straggler keeps running; "
                  "first finished attempt wins)");
    }
  }

  void loop() {
    while (!complete()) {
      reap_children();
      expire_leases();
      assign_idle();
      if (complete()) break;

      std::vector<pollfd> fds;
      fds.push_back({listen_fd_, POLLIN, 0});
      for (const Conn& conn : conns_)
        if (conn.fd >= 0) fds.push_back({conn.fd, POLLIN, 0});
      const int n = ::poll(fds.data(), fds.size(), 200);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("orch: poll(): ") +
                                 std::strerror(errno));
      }
      if (n == 0) continue;

      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = accept_unix(listen_fd_);
        conns_.emplace_back(fd, "worker connection");
      }
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (Conn& conn : conns_) {
          if (conn.fd != fds[i].fd) continue;
          char chunk[65536];
          const ssize_t got = ::read(conn.fd, chunk, sizeof(chunk));
          if (got < 0) {
            if (errno == EINTR) break;
            throw std::runtime_error(std::string("orch: read(): ") +
                                     std::strerror(errno));
          }
          if (got == 0) {
            handle_eof(conn);
            break;
          }
          conn.buffer.feed(std::string_view(chunk,
                                            static_cast<std::size_t>(got)));
          while (auto msg = conn.buffer.next()) handle_message(conn, *msg);
          break;
        }
      }
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const Conn& c) { return c.fd < 0; }),
                   conns_.end());
    }
  }

  void shutdown_fleet() {
    for (Conn& conn : conns_) {
      if (conn.fd < 0) continue;
      try {
        send_message(conn.fd, shutdown("job complete"));
      } catch (const std::exception&) {
        // A worker that died between its last message and now is fine.
      }
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  /// Reaps the whole fleet, escalating to SIGKILL after a grace period
  /// (`force` skips the grace — exception paths already killed them).
  void cleanup(bool force) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    ::unlink(config_.socket_path.c_str());
    for (Conn& conn : conns_)
      if (conn.fd >= 0) ::close(conn.fd);
    conns_.clear();
    const double deadline = now_seconds() + (force ? 2.0 : 10.0);
    bool killed = force;
    while (true) {
      bool any_alive = false;
      for (auto& [pid, alive] : children_) {
        if (!alive) continue;
        int status = 0;
        if (try_reap(pid, status)) {
          alive = false;
          continue;
        }
        any_alive = true;
      }
      if (!any_alive) break;
      if (now_seconds() > deadline) {
        if (killed)
          throw std::runtime_error(
              "orch: workers survived SIGKILL — giving up on reaping");
        for (auto& [pid, alive] : children_)
          if (alive) ::kill(pid, SIGKILL);
        killed = true;
      }
      ::usleep(20 * 1000);
    }
  }

  const JobConfig& config_;
  const JobCallbacks& callbacks_;
  const SpawnWorkerFn& spawn_worker_;
  JobStats stats_;
  std::vector<Window> windows_;
  std::vector<Conn> conns_;
  std::map<pid_t, bool> children_;  // pid -> still live
  std::vector<std::size_t> reissue_queue_;
  std::size_t outstanding_reissues_ = 0;
  bool reissue_armed_ = false;
  std::size_t next_fold_ = 0;
  std::size_t folded_ = 0;
  std::size_t live_workers_ = 0;
  std::uint32_t next_worker_id_ = 0;
  int listen_fd_ = -1;
};

}  // namespace

JobStats run_coordinator(const JobConfig& config,
                         const JobCallbacks& callbacks,
                         const SpawnWorkerFn& spawn_worker) {
  // A write to a worker that already exited must surface as an EPIPE
  // exception (requeue + respawn), not a fatal SIGPIPE that kills the
  // coordinator with the fleet still running and the socket file behind.
  // send_message also passes MSG_NOSIGNAL; this covers any other fd.
  ::signal(SIGPIPE, SIG_IGN);
  return Job(config, callbacks, spawn_worker).run();
}

}  // namespace roleshare::orch
