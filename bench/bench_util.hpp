// Shared helpers for the table/figure reproduction binaries: consistent
// headers, simple argument parsing (--key=value overrides so the same
// binary can be run at paper scale or smoke-test scale), wall-clock
// timing, and machine-readable BENCH_*.json result files for the perf
// trajectory.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "crypto/sha256.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace roleshare::bench {

inline void print_header(const char* experiment_id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment_id, title);
  std::printf("Fooladgar et al., \"On Incentive Compatible Role-Based Reward\n"
              "Distribution in Algorand\" (DSN 2020) — RoleShare reproduction\n");
  std::printf("================================================================\n");
}

/// The value of the first "--name=value" in argv; nullopt when absent.
inline std::optional<std::string> arg_value(int argc, char** argv,
                                            const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::nullopt;
}

/// Parses `value` whole with std::from_chars; throws
/// std::invalid_argument naming --name when anything is left over
/// ("60k", "2e3" as an integer), nothing parses or the value overflows.
template <typename T>
T parse_flag(const std::string& name, const std::string& value) {
  T parsed{};
  const char* const last = value.data() + value.size();
  const auto [end, error] = std::from_chars(value.data(), last, parsed);
  if (error == std::errc::result_out_of_range)
    throw std::invalid_argument("--" + name + "=" + value + " is out of range");
  if (error != std::errc() || end != last) {
    throw std::invalid_argument("--" + name + "=" + value + " is not " +
                                (std::is_integral_v<T> ? "an integer"
                                                       : "a number"));
  }
  return parsed;
}

/// Parses "--name=value" from argv as a whole integer; returns fallback
/// when absent.
inline long long arg_int(int argc, char** argv, const std::string& name,
                         long long fallback) {
  const std::optional<std::string> value = arg_value(argc, argv, name);
  return value ? parse_flag<long long>(name, *value) : fallback;
}

/// A count or size flag (--nodes, --runs, --threads, ...): arg_int that
/// also refuses a negative value, which a cast to std::size_t would wrap
/// to ~2^64.
inline std::size_t arg_size(int argc, char** argv, const std::string& name,
                            std::size_t fallback) {
  const long long value =
      arg_int(argc, argv, name, static_cast<long long>(fallback));
  if (value < 0) {
    throw std::invalid_argument("--" + name + "=" + std::to_string(value) +
                                " is negative");
  }
  return static_cast<std::size_t>(value);
}

/// A count flag whose absence means "not set" (--run-begin, --reissue,
/// round_latency's --rounds): nullopt when absent, else the value parsed
/// as arg_size does, so a negative value is refused naming the flag
/// instead of read as absent.
inline std::optional<std::size_t> arg_optional_size(int argc, char** argv,
                                                    const std::string& name) {
  if (!arg_value(argc, argv, name)) return std::nullopt;
  return arg_size(argc, argv, name, 0);
}

/// Parses "--name=value" from argv as a finite double; returns fallback
/// when absent (e.g. --alpha=0.3, --top-fraction=0.01).
inline double arg_real(int argc, char** argv, const std::string& name,
                       double fallback) {
  const std::optional<std::string> value = arg_value(argc, argv, name);
  if (!value) return fallback;
  const double parsed = parse_flag<double>(name, *value);
  if (!std::isfinite(parsed))
    throw std::invalid_argument("--" + name + "=" + *value + " is not finite");
  return parsed;
}

/// Parses "--name=value" from argv as a string; returns fallback when
/// absent (e.g. --agg=streaming, --partial-out=shard0.json).
inline std::string arg_string(int argc, char** argv, const std::string& name,
                              const std::string& fallback) {
  return arg_value(argc, argv, name).value_or(fallback);
}

/// The unified `--threads=N` knob every runner-backed binary exposes
/// (0 = all hardware threads; default 1 keeps output comparable with the
/// serial baselines).
inline std::size_t arg_threads(int argc, char** argv) {
  return arg_size(argc, argv, "threads", 1);
}

/// The `--inner-threads=N` knob: within-run worker threads for the round
/// engine's per-node loops (0 = all hardware threads). Forced serial by
/// the experiment runner whenever `--threads` makes the run fan-out
/// parallel, so the two knobs can never oversubscribe the machine.
inline std::size_t arg_inner_threads(int argc, char** argv) {
  return arg_size(argc, argv, "inner-threads", 1);
}

/// Wall-clock stopwatch for the BENCH_*.json timing fields.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The fields of one BENCH_*.json file, in output order: numbers and
/// strings.
using JsonFields = std::vector<std::pair<std::string, util::json::Value>>;

/// Git SHA from the build-time-generated rs_git_sha.h (cmake/git_sha.cmake
/// refreshes it on every build, so incremental rebuilds after new commits
/// stamp the right SHA); "unknown" outside the CMake build or a git
/// checkout. Always present so the perf trajectory can key on it.
#if __has_include("rs_git_sha.h")
#include "rs_git_sha.h"
#endif
inline const char* git_sha() {
#ifdef RS_GIT_SHA
  return RS_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Peak resident set size of this process in bytes (getrusage); the
/// BENCH_*.json field that tracks the exact-vs-streaming accumulator
/// memory win over time. 0 where the platform reports nothing useful.
inline double peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#ifdef __APPLE__
  return static_cast<double>(usage.ru_maxrss);  // already bytes
#else
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
#endif
}

/// util::read_file under the name rsbench/ and the tests call.
inline std::string read_text_file(const std::string& path) {
  return util::read_file(path);
}

/// Replaces a whole file through a temp file and a rename, so a failed
/// or killed rewrite (a --partial-in=X --partial-out=X checkpoint)
/// leaves the previous file intact; throws std::runtime_error naming the
/// path on failure.
inline void write_text_file(const std::string& path,
                            const std::string& content) {
  util::write_file_atomically(path, content);
}

/// Writes BENCH_<name>.json next to the binary's working directory:
/// a flat object of numeric and string fields (timings, config, headline
/// results) so the perf trajectory can be tracked without scraping stdout.
/// The building git SHA, the process's peak RSS and the SHA-256
/// compression CPUID selected (timings move with it) are appended to
/// every file automatically.
inline void emit_json(const std::string& name, const JsonFields& fields) {
  using util::json::Value;
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  // One field per line; dump() prints numbers as %.17g and a non-finite
  // one as null (NaN reaches here via RoundAccumulator's empty-round
  // semantics under churn).
  std::string doc = "{\n  \"bench\": " + Value(name).dump();
  const auto append = [&doc](const std::string& key, const Value& value) {
    doc += ",\n  " + Value(key).dump() + ": " + value.dump();
  };
  for (const auto& [key, value] : fields) append(key, value);
  append("peak_rss_bytes", peak_rss_bytes());
  append("sha256_impl", std::string(crypto::sha256_implementation()));
  append("git_sha", git_sha());
  doc += "\n}\n";
  std::fputs(doc.c_str(), out);
  std::fclose(out);
  std::printf("\n[bench] wrote %s\n", path.c_str());
}

}  // namespace roleshare::bench
