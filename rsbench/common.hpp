// Shared pieces of the rsbench binary: run options, the JSON-lines record
// sink run.py reads, order statistics, and process memory probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace rsbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // tiny sizes: schema test only
  bool setup_only = false;  // set up, record setup_s, exit
  /// CLOCK_MONOTONIC instant (s) the launcher started this process at;
  /// 0 = unknown.
  double launched_at = 0.0;
  std::string out_dir;      // relative to the working directory
};

/// Line-oriented JSON record sink (out_dir/records.jsonl). Every line is
/// flushed as it is written, so a run killed by the watchdog still leaves
/// everything it measured — and a forked worker never inherits buffered
/// records it could flush a second time.
class Records {
 public:
  explicit Records(const std::string& path);
  ~Records();
  Records(const Records&) = delete;
  Records& operator=(const Records&) = delete;

  void write(const roleshare::util::json::Value& record);

  /// {"kind": "metric", "name", "value", "unit"} — one per-layer metric.
  void metric(const std::string& name, double value, const char* unit);
  /// {"kind": "check", "name", "ok", "detail"} — one output check.
  void check(const std::string& name, bool ok, const std::string& detail);

 private:
  std::FILE* file_ = nullptr;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Peak RSS in MB of this process and of its reaped children
/// (RUSAGE_SELF / RUSAGE_CHILDREN).
double peak_rss_self_mb();
double peak_rss_children_mb();
/// Current resident set of this process in bytes (/proc/self/statm).
double current_rss_bytes();

/// Lower-case hex SHA-256 of `text`.
std::string sha256_hex(std::string_view text);

}  // namespace rsbench
