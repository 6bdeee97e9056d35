#include "workloads.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "orch/spawn.hpp"
#include "orch/worker.hpp"

namespace rsbench {

namespace bench = roleshare::bench;
namespace json = roleshare::util::json;
namespace orch = roleshare::orch;
namespace sim = roleshare::sim;

namespace {

/// Below this population Fig 6's 13,026 committee draws per round (with
/// replacement) can cover every node, leaving no Others stake (S_K = 0);
/// econ::BoundInputs::validate then throws and the orchestrated job
/// aborts after max_attempts. 16,000 is the smallest size the repo's own
/// smoke runs use for Fig 6.
constexpr std::size_t kFig6MinNodes = 16'000;

/// Calls a bench_drivers.hpp factory on a synthetic argv.
template <typename Factory>
auto with_argv(Factory factory, std::vector<std::string> args) {
  std::vector<char*> argv;
  static char program[] = "rsbench";
  argv.push_back(program);
  for (std::string& arg : args) argv.push_back(arg.data());
  return factory(static_cast<int>(argv.size()), argv.data());
}

std::string str(std::size_t v) { return std::to_string(v); }

/// Every element of `series.at(key)` as a number; "" when the array has
/// `rounds` entries each inside [lo, hi], otherwise what is wrong.
std::string check_array(const json::Value& series, const char* key,
                        std::size_t rounds, double lo, double hi) {
  const json::Value::Array& values = series.at(key).as_array();
  if (values.size() != rounds)
    return std::string(key) + " has " + str(values.size()) +
           " rounds, expected " + str(rounds);
  for (std::size_t r = 0; r < values.size(); ++r) {
    const double x = values[r].as_number();
    if (!(x >= lo && x <= hi))
      return std::string(key) + "[" + str(r) + "] = " + std::to_string(x) +
             " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
             "]";
  }
  return "";
}

/// Fig 3 per-round invariants: one entry per simulated round (the chain
/// advanced once per round), final + tentative + none = 100%.
std::string check_fig3_series(const json::Value& series, const Sizes& sizes) {
  for (const char* key : {"final", "tentative", "none"}) {
    if (std::string err = check_array(series, key, sizes.rounds, 0.0, 100.0);
        !err.empty())
      return err;
  }
  const double n = static_cast<double>(sizes.nodes);
  if (std::string err = check_array(series, "live", sizes.rounds, n, n);
      !err.empty())
    return err;
  const auto& fin = series.at("final").as_array();
  const auto& tent = series.at("tentative").as_array();
  const auto& none = series.at("none").as_array();
  for (std::size_t r = 0; r < sizes.rounds; ++r) {
    const double sum =
        fin[r].as_number() + tent[r].as_number() + none[r].as_number();
    if (std::fabs(sum - 100.0) > 1e-6)
      return "round " + str(r) + ": final+tentative+none = " +
             std::to_string(sum) + "%";
  }
  return "";
}

/// Long-horizon invariants: one entry per round in every series, shares
/// and correlations in range, rewards actually paid.
std::string check_longhorizon_series(const json::Value& series,
                                     const Sizes& sizes) {
  if (std::string err = check_array(series, "gini", sizes.rounds, 0.0, 1.0);
      !err.empty())
    return err;
  if (std::string err =
          check_array(series, "top_share", sizes.rounds, 0.0, 1.0);
      !err.empty())
    return err;
  if (std::string err =
          check_array(series, "defector_corr", sizes.rounds, -1.0, 1.0);
      !err.empty())
    return err;
  if (std::string err =
          check_array(series, "final_pct", sizes.rounds, 0.0, 100.0);
      !err.empty())
    return err;
  if (!(series.at("mean_paid_algos").as_number() > 0.0))
    return "no reward was paid";
  return "";
}

/// Fig 6 series-document invariants: all four panels over [0, runs),
/// one B_i and one Foundation entry per round, finite non-negative B_i.
std::string check_fig6_document(const json::Value& doc, const Sizes& sizes) {
  if (doc.at("run_begin").as_size() != 0 ||
      doc.at("run_end").as_size() != sizes.runs)
    return "document does not cover runs [0, " + str(sizes.runs) + ")";
  const json::Value::Array& panels = doc.at("panels").as_array();
  if (panels.size() != std::size(bench::fig6::kPanels))
    return "document has " + str(panels.size()) + " panels";
  for (const json::Value& panel : panels) {
    const json::Value& series = panel.at("series");
    for (const char* key : {"bi_per_round_mean", "foundation_per_round"}) {
      if (std::string err = check_array(series, key, sizes.rounds, 0.0, 1e18);
          !err.empty())
        return err;
    }
    if (series.at("infeasible_rounds").as_size() > sizes.runs * sizes.rounds)
      return "more infeasible rounds than rounds";
    if (!(series.at("mean_bi").as_number() >= 0.0))
      return "mean_bi is not a non-negative number";
  }
  return "";
}

/// A panel workload: op k runs Monte-Carlo run first_run + k / panels of
/// panel k % panels through the driver's run_panel — one
/// sim::run_defection_partial / run_longhorizon_partial call.
template <typename PartialT>
class PanelWorkload final : public Workload {
 public:
  using Check = std::string (*)(const json::Value&, const Sizes&);

  PanelWorkload(bench::PanelDriver<PartialT> driver, Sizes sizes,
                std::size_t first_run, Check check)
      : driver_(std::move(driver)),
        sizes_(sizes),
        first_run_(first_run),
        check_(check) {}

  std::size_t sweep() const override { return driver_.panel_count; }

  OpResult run_op(std::size_t k, Tracer* tracer) override {
    OpResult op;
    op.index = k;
    op.panel = k % driver_.panel_count;
    op.run = first_run_ + k / driver_.panel_count;
    const auto start = Clock::now();
    try {
      if (op.run >= driver_.runs)
        throw std::out_of_range("run " + str(op.run) +
                                " is past this seed's run window");
      std::optional<PartialT> partial;
      {
        const Scope span(tracer, "sim.run_panel");
        partial.emplace(
            driver_.run_panel(op.panel, sim::RunShard{op.run, op.run + 1}));
      }
      op.wall_s = seconds_since(start);
      op.rounds = sizes_.rounds;
      op.series = driver_.series_json(*partial);
      // The bytes write_series_document would put on disk for this run.
      json::Value doc = driver_.header;
      doc.set("run_begin", op.run);
      doc.set("run_end", op.run + 1);
      doc.set("window_end", op.run + 1);
      json::Value panel = driver_.panel_meta(op.panel);
      panel.set("series", op.series);
      json::Value panels = json::Value::array();
      panels.push_back(std::move(panel));
      doc.set("panels", std::move(panels));
      op.digest = sha256_hex(doc.dump() + "\n");
      if (std::string err = check_(op.series, sizes_); !err.empty()) {
        op.failed = 1;
        op.cause = "output check: " + err;
      }
    } catch (const std::exception& e) {
      op.wall_s = seconds_since(start);
      op.failed = 1;
      op.cause = std::string("threw: ") + e.what();
    }
    return op;
  }

 private:
  bench::PanelDriver<PartialT> driver_;
  Sizes sizes_;
  std::size_t first_run_;
  Check check_;
};

/// The orchestrated Fig 6 job; one op = one job, its windows are the
/// counted operations.
class Fig6Workload final : public Workload {
 public:
  explicit Fig6Workload(Options options) : options_(std::move(options)) {}

  std::size_t sweep() const override { return 1; }

  OpResult run_op(std::size_t k, Tracer* tracer) override {
    const Sizes sizes = sizes_for(options_.workload, options_.smoke);
    OpResult op;
    op.index = k;
    const std::size_t windows = (sizes.runs + sizes.window - 1) / sizes.window;
    op.attempted = windows;
    try {
      const JobRun job = run_fig6_job(options_, k, tracer);
      op.wall_s = job.wall_s;
      op.rounds =
          std::size(bench::fig6::kPanels) * sizes.runs * sizes.rounds;
      op.attempted = job.stats.windows;
      // A requeued window is a failed attempt even though the job
      // recovered from it.
      op.failed = std::min(job.stats.windows,
                           job.stats.retries + job.stats.worker_deaths);
      if (op.failed > 0)
        op.cause = "requeued windows: retries=" + str(job.stats.retries) +
                   " worker_deaths=" + str(job.stats.worker_deaths);
      const std::string bytes = bench::read_text_file(job.series_path);
      op.digest = sha256_hex(bytes);
      if (std::string err = check_fig6_document(json::parse(bytes), sizes);
          !err.empty()) {
        op.failed = op.attempted;
        op.cause = "output check: " + err;
      }
    } catch (const std::exception& e) {
      op.failed = op.attempted;
      op.cause = std::string("threw: ") + e.what();
    }
    return op;
  }

 private:
  Options options_;
};

}  // namespace

Sizes sizes_for(const std::string& workload, bool smoke) {
  Sizes s;
  if (workload == "fig3_dense") {
    s.nodes = smoke ? 60 : 1000;
    s.rounds = smoke ? 3 : 30;
  } else if (workload == "longhorizon_sparse") {
    s.nodes = smoke ? 2000 : 1'000'000;
    s.rounds = smoke ? 40 : 12'000;
  } else if (workload == "fig6_orchestrated") {
    s.nodes = smoke ? kFig6MinNodes : 100'000;
    s.rounds = smoke ? 2 : 10;
    s.runs = smoke ? 4 : 24;
    s.window = 2;
    s.workers = smoke ? 2 : 3;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return s;
}

std::unique_ptr<Workload> make_workload(const Options& options,
                                        const std::string& name) {
  const Sizes sizes = sizes_for(name, options.smoke);
  std::filesystem::create_directories(options.out_dir);
  const std::size_t first = options.seed * kRunStride;
  std::vector<std::string> knobs = {
      "--nodes=" + str(sizes.nodes), "--runs=" + str(first + kRunStride),
      "--rounds=" + str(sizes.rounds), "--threads=1", "--inner-threads=1"};
  if (name == "fig3_dense") {
    return std::make_unique<PanelWorkload<sim::DefectionPartial>>(
        with_argv(bench::make_fig3_driver, knobs).panels, sizes, first,
        &check_fig3_series);
  }
  if (name == "longhorizon_sparse") {
    return std::make_unique<PanelWorkload<sim::LongHorizonPartial>>(
        with_argv(bench::make_longhorizon_driver, knobs).panels, sizes,
        first, &check_longhorizon_series);
  }
  if (sizes.nodes < kFig6MinNodes) {
    throw std::invalid_argument(
        "fig6_orchestrated at " + str(sizes.nodes) +
        " nodes: the 13,026 committee draws per round can cover the whole "
        "population (S_K = 0), which aborts the job; use at least " +
        str(kFig6MinNodes) + " nodes");
  }
  Options mine = options;
  mine.workload = name;
  return std::make_unique<Fig6Workload>(std::move(mine));
}

bench::PanelDriver<sim::RewardPartial> seeded_fig6_panels(
    std::uint64_t seed, const Sizes& sizes) {
  bench::Fig6Driver d = with_argv(
      bench::make_fig6_driver,
      {"--nodes=" + str(sizes.nodes), "--runs=" + str(sizes.runs),
       "--rounds=" + str(sizes.rounds), "--threads=1", "--inner-threads=1"});
  d.panels.header.set("bench_seed", seed);
  // make_fig6_driver's run_panel with the root seed offset by the
  // benchmark seed; everything else is the driver's own.
  d.panels.run_panel = [nodes = d.nodes, runs = d.runs, rounds = d.rounds,
                        agg = d.agg, seed](std::size_t i, sim::RunShard sub) {
    sim::RewardExperimentConfig config;
    config.node_count = nodes;
    config.seed = 1000 + i + std::size(bench::fig6::kPanels) * seed;
    config.stakes = bench::fig6::specs()[i];
    config.runs = runs;
    config.rounds_per_run = rounds;
    config.threads = 1;
    config.inner_threads = 1;
    config.agg = agg;
    config.shard = sub;
    return sim::run_reward_partial(config);
  };
  return d.panels;
}

JobRun run_fig6_job(const Options& options, std::size_t job_index,
                    Tracer* tracer) {
  const Sizes sizes = sizes_for("fig6_orchestrated", options.smoke);
  const bench::PanelDriver<sim::RewardPartial> driver =
      seeded_fig6_panels(options.seed, sizes);
  // Relative paths keep the socket path far below the kernel's ~107-byte
  // cap wherever the checkout lives.
  const std::string job_dir = options.out_dir + "/j" + str(job_index);
  std::filesystem::remove_all(job_dir);
  JobRun run;
  run.spool_dir = job_dir + "/spool";
  run.series_path = job_dir + "/series.json";
  const std::string store_dir = job_dir + "/store";
  std::filesystem::create_directories(run.spool_dir);

  bench::ShardableBench shardable = bench::make_shardable_bench(driver);
  orch::JobConfig job;
  job.runs = sizes.runs;
  job.window = sizes.window;
  job.workers = sizes.workers;
  job.socket_path = run.spool_dir + "/orch.sock";
  job.spool_dir = run.spool_dir;

  orch::JobCallbacks callbacks;
  callbacks.config_echo = shardable.config_echo;
  callbacks.fold = [&](const std::string& bytes, std::size_t begin,
                       std::size_t end, const std::string& origin) {
    const Scope span(tracer, "orch.fold");
    run.spool_bytes += bytes.size();
    shardable.fold(bytes, begin, end, origin);
  };
  callbacks.finalize = [&]() { shardable.write_series(run.series_path); };

  const bool traced = tracer != nullptr;
  const orch::SpawnWorkerFn spawn_worker = [&](std::uint32_t worker_id) {
    const Scope span(tracer, "orch.spawn");
    std::fflush(nullptr);  // nothing buffered may be flushed twice
    return orch::spawn_child([&, worker_id]() {
      const bench::ShardableBench mine = bench::make_shardable_bench(driver);
      Tracer worker_tracer(worker_id);
      Tracer* wt = traced ? &worker_tracer : nullptr;
      orch::WorkerOptions worker;
      worker.socket_path = job.socket_path;
      worker.worker_id = worker_id;
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
        knobs.stop_after = stop_after;
        knobs.format = sim::PartialFormat::Binary;
        knobs.store_dir = store_dir;
        knobs.on_checkpoint = on_checkpoint;
        const Scope window(wt, "orch.worker.run_window");
        return mine.run_window(knobs);
      };
      const int status = orch::run_worker(worker, runner);
      if (wt != nullptr)
        wt->append_to(run.spool_dir + "/spans-w" + str(worker_id) + "-" +
                      std::to_string(getpid()) + ".jsonl");
      return status;
    });
  };

  const auto start = Clock::now();
  run.stats = orch::run_coordinator(job, callbacks, spawn_worker);
  run.wall_s = seconds_since(start);
  return run;
}

void print_self_times(const char* pass, const Tracer& tracer) {
  std::printf("\n[trace] %s: self time per span\n", pass);
  std::printf("  %-32s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const Tracer::SelfTime& row : tracer.self_times()) {
    std::printf("  %-32s %8zu %12.3f %12.3f\n", row.name.c_str(), row.count,
                row.total_ms, row.self_ms);
  }
}

}  // namespace rsbench
