// Shared helpers for the table/figure reproduction binaries: consistent
// headers, simple argument parsing (--key=value overrides so the same
// binary can be run at paper scale or smoke-test scale), wall-clock
// timing, and machine-readable BENCH_*.json result files for the perf
// trajectory.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "crypto/sha256.hpp"
#include "util/atomic_file.hpp"

namespace roleshare::bench {

inline void print_header(const char* experiment_id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment_id, title);
  std::printf("Fooladgar et al., \"On Incentive Compatible Role-Based Reward\n"
              "Distribution in Algorand\" (DSN 2020) — RoleShare reproduction\n");
  std::printf("================================================================\n");
}

/// Parses "--name=value" from argv; returns fallback when absent.
inline long long arg_int(int argc, char** argv, const std::string& name,
                         long long fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0)
      return std::atoll(arg.substr(prefix.size()).c_str());
  }
  return fallback;
}

/// Parses "--name=value" from argv as a double; returns fallback when
/// absent (e.g. --alpha=0.3, --top-fraction=0.01).
inline double arg_real(int argc, char** argv, const std::string& name,
                       double fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0)
      return std::atof(arg.substr(prefix.size()).c_str());
  }
  return fallback;
}

/// Parses "--name=value" from argv as a string; returns fallback when
/// absent (e.g. --agg=streaming, --partial-out=shard0.json).
inline std::string arg_string(int argc, char** argv, const std::string& name,
                              const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

/// The unified `--threads=N` knob every runner-backed binary exposes
/// (0 = all hardware threads; default 1 keeps output comparable with the
/// serial baselines).
inline std::size_t arg_threads(int argc, char** argv) {
  return static_cast<std::size_t>(arg_int(argc, argv, "threads", 1));
}

/// The `--inner-threads=N` knob: within-run worker threads for the round
/// engine's per-node loops (0 = all hardware threads). Forced serial by
/// the experiment runner whenever `--threads` makes the run fan-out
/// parallel, so the two knobs can never oversubscribe the machine.
inline std::size_t arg_inner_threads(int argc, char** argv) {
  return static_cast<std::size_t>(arg_int(argc, argv, "inner-threads", 1));
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

/// One BENCH_*.json field value: a number or a string. Implicit
/// constructors keep the brace-initialized call sites that predate string
/// support compiling unchanged.
class JsonValue {
 public:
  /// One constrained template instead of per-type overloads: any
  /// arithmetic type (int64_t stakes, size_t counts, doubles) converts
  /// without overload-rank ambiguity.
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  JsonValue(T v) : num_(static_cast<double>(v)) {}       // NOLINT(runtime/explicit)
  JsonValue(std::string v)                               // NOLINT(runtime/explicit)
      : str_(std::move(v)), is_string_(true) {}
  JsonValue(const char* v) : str_(v), is_string_(true) {} // NOLINT(runtime/explicit)

  bool is_string() const { return is_string_; }
  double number() const { return num_; }
  const std::string& string() const { return str_; }

 private:
  double num_ = 0.0;
  std::string str_;
  bool is_string_ = false;
};

using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

/// Reads a whole file; throws std::runtime_error naming the path when it
/// cannot be opened (shard partials, series snapshots).
inline std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
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
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"%s\"", json_escape(name).c_str());
  for (const auto& [key, value] : fields) {
    if (value.is_string()) {
      std::fprintf(out, ",\n  \"%s\": \"%s\"", json_escape(key).c_str(),
                   json_escape(value.string()).c_str());
    } else if (!std::isfinite(value.number())) {
      // JSON has no NaN/Infinity literal; null keeps the file parseable
      // (NaN legitimately reaches here via PerRoundSamples' empty-round
      // semantics under churn).
      std::fprintf(out, ",\n  \"%s\": null", json_escape(key).c_str());
    } else {
      std::fprintf(out, ",\n  \"%s\": %.17g", json_escape(key).c_str(),
                   value.number());
    }
  }
  std::fprintf(out, ",\n  \"peak_rss_bytes\": %.17g", peak_rss_bytes());
  std::fprintf(out, ",\n  \"sha256_impl\": \"%s\"",
               json_escape(std::string(crypto::sha256_implementation()))
                   .c_str());
  std::fprintf(out, ",\n  \"git_sha\": \"%s\"\n}\n",
               json_escape(git_sha()).c_str());
  std::fclose(out);
  std::printf("\n[bench] wrote %s\n", path.c_str());
}

}  // namespace roleshare::bench
