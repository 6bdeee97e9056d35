// rsbench — the RoleShare benchmark binary. run.py builds and drives it;
// by hand:
//
//   rsbench --workload=fig3_dense --seed=1 --seconds=25 --trace=0
//           --out=.bench_out/fig3_dense [--smoke=1] [--setup-only=1]
//           [--launched-at=<CLOCK_MONOTONIC seconds>]
//
// Untraced (--trace=0): set the workload up, record the time since launch
// (setup_s; --setup-only stops there), then run its operations in whole
// passes over every panel for about --seconds, writing one record per
// operation — timing, rounds, the digest of its finalized series
// document, and any failure with its cause — to <out>/records.jsonl as
// it goes.
//
// Traced (--trace=1): run the workload's first operation untraced and
// then traced (the digests must match; the wall-time ratio is the
// tracing overhead), then the layer passes of all three workload shapes
// (layers.cpp), writing per-layer metric records and every span to
// <out>/spans.jsonl.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "workloads.hpp"

namespace json = roleshare::util::json;

namespace rsbench {
namespace {

void write_op(Records& records, const std::string& workload,
              const OpResult& op, bool traced) {
  json::Value v = json::Value::object();
  v.set("kind", "op");
  v.set("workload", workload);
  v.set("traced", traced);
  v.set("index", op.index);
  v.set("panel", op.panel);
  v.set("run", op.run);
  v.set("wall_s", op.wall_s);
  v.set("rounds", op.rounds);
  v.set("attempted", op.attempted);
  v.set("failed", op.failed);
  v.set("cause", op.cause);
  v.set("digest", op.digest);
  records.write(v);
}

void write_rss(Records& records) {
  json::Value v = json::Value::object();
  v.set("kind", "rss");
  v.set("self_mb", peak_rss_self_mb());
  v.set("children_mb", peak_rss_children_mb());
  records.write(v);
}

void write_env(Records& records, const Options& options) {
  json::Value v = json::Value::object();
  v.set("kind", "env");
#if defined(__clang__)
  v.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  v.set("compiler", std::string("gcc ") + __VERSION__);
#else
  v.set("compiler", "unknown");
#endif
  v.set("build_type", RSBENCH_BUILD_TYPE);
#ifdef NDEBUG
  v.set("ndebug", true);
#else
  v.set("ndebug", false);
#endif
  v.set("workload", options.workload);
  v.set("seed", options.seed);
  v.set("smoke", options.smoke);
  records.write(v);
}

int run_untraced(const Options& options, Records& records) {
  // setup_s: from the launch of this process (run.py passes the
  // monotonic-clock instant it started us) to the first timed call.
  const std::unique_ptr<Workload> workload =
      make_workload(options, options.workload);
  json::Value setup = json::Value::object();
  setup.set("kind", "setup");
  setup.set("launch_to_ready_s",
            options.launched_at > 0
                ? std::chrono::duration<double>(
                      Clock::now().time_since_epoch()).count() -
                      options.launched_at
                : 0.0);
  records.write(setup);
  if (options.setup_only) return 0;

  // Whole passes over every panel, as many as fit --seconds best (at
  // least one), so every run measures each panel equally often.
  const auto start = Clock::now();
  std::size_t passes = 0;
  for (std::size_t k = 0;; ++k) {
    const OpResult op = workload->run_op(k, nullptr);
    write_op(records, options.workload, op, false);
    write_rss(records);
    std::printf("[op %zu] panel=%zu run=%zu wall=%.3fs failed=%zu %s\n", k,
                op.panel, op.run, op.wall_s, op.failed, op.cause.c_str());
    std::fflush(stdout);
    if ((k + 1) % workload->sweep() != 0) continue;
    if (passes == 0) {
      const double first = seconds_since(start);
      passes = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(options.seconds / first)));
    }
    if ((k + 1) / workload->sweep() >= passes) break;
  }
  return 0;
}

/// Runs one layer pass; a pass that throws is a failed operation.
template <typename Pass>
void run_pass(const char* name, Records& records, Pass&& pass) {
  OpResult op;
  const auto start = Clock::now();
  try {
    pass();
  } catch (const std::exception& e) {
    op.failed = 1;
    op.cause = std::string("threw: ") + e.what();
  }
  op.wall_s = seconds_since(start);
  write_op(records, name, op, true);
  std::printf("[pass %s] wall=%.3fs %s\n", name, op.wall_s, op.cause.c_str());
  std::fflush(stdout);
}

int run_traced(const Options& options, Records& records) {
  const std::string spans_path = options.out_dir + "/spans.jsonl";
  std::filesystem::remove(spans_path);

  run_pass("overhead", records, [&] {
    const std::unique_ptr<Workload> workload =
        make_workload(options, options.workload);
    const OpResult plain = workload->run_op(0, nullptr);
    Tracer tracer(0);
    const OpResult traced = workload->run_op(0, &tracer);
    write_op(records, options.workload, plain, false);
    write_op(records, options.workload, traced, true);
    const bool same = !plain.digest.empty() && plain.digest == traced.digest;
    records.check("trace.reproduces_untraced_digest", same,
                  same ? "" : plain.digest + " vs " + traced.digest);
    records.metric("trace.overhead_ratio", traced.wall_s / plain.wall_s,
                   "ratio");
    tracer.append_to(spans_path);
    print_self_times(options.workload.c_str(), tracer);
  });
  run_pass("fig3_dense_layers", records,
           [&] { trace_fig3_layers(options, records, spans_path); });
  run_pass("longhorizon_sparse_layers", records,
           [&] { trace_longhorizon_layers(options, records, spans_path); });
  run_pass("fig6_orchestrated_layers", records,
           [&] { trace_fig6_layers(options, records, spans_path); });
  return 0;
}

}  // namespace
}  // namespace rsbench

int main(int argc, char** argv) {
  namespace bench = roleshare::bench;
  rsbench::Options options;
  options.workload = bench::arg_string(argc, argv, "workload", "");
  const long long seed = bench::arg_int(argc, argv, "seed", -1);
  options.seconds = bench::arg_real(argc, argv, "seconds", 10.0);
  options.trace = bench::arg_int(argc, argv, "trace", 0) != 0;
  options.smoke = bench::arg_int(argc, argv, "smoke", 0) != 0;
  options.out_dir = bench::arg_string(argc, argv, "out", "");
  options.launched_at = bench::arg_real(argc, argv, "launched-at", 0.0);
  options.setup_only = bench::arg_int(argc, argv, "setup-only", 0) != 0;
  // The seed picks run indices seed * kRunStride onward; bound it so that
  // product stays far inside size_t.
  if (options.workload.empty() || options.out_dir.empty() || seed < 0 ||
      seed >= (1LL << 40) || !(options.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: rsbench --workload=W --seed=N (0 <= N < 2^40) "
                 "--seconds=S --trace=0|1 --out=DIR [--smoke=1] "
                 "[--setup-only=1] [--launched-at=T]\n");
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(seed);
#ifndef NDEBUG
  if (!options.smoke) {
    std::fprintf(stderr, "rsbench: refusing to time a build without NDEBUG "
                         "(build type %s); build Release\n",
                 RSBENCH_BUILD_TYPE);
    return 2;
  }
#endif
  try {
    std::filesystem::create_directories(options.out_dir);
    rsbench::Records records(options.out_dir + "/records.jsonl");
    rsbench::write_env(records, options);
    return options.trace ? rsbench::run_traced(options, records)
                         : rsbench::run_untraced(options, records);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsbench: %s\n", e.what());
    return 1;
  }
}
