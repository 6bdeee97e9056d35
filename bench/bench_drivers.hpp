// Per-bench shard drivers (DESIGN.md §11): the single source of truth
// for each figure bench's panel layout — constants, seeds, config
// construction, document header, panel metadata and series snapshot.
//
// Both halves of an orchestrated job parse the SAME argv through the
// same factory here: the bench main (figure mode) and the orchestrate
// coordinator/worker pair. That is what makes an orchestrated run
// byte-identical to a single-process one by construction — there is no
// second copy of any seed, rate table or header field to drift. The
// wire protocol's HELLO config echo (orch/wire.hpp) re-checks the
// invariant at runtime across process boundaries.
//
// Layers:
//   PanelDriver<PartialT>   the generic shard surface of one bench:
//                           header + panel_meta + run_panel as
//                           run_sharded_panels consumes them, plus
//                           series_json (finalize one merged partial
//                           into the deterministic series snapshot) and
//                           write_series, the one series-document writer.
//   make_<bench>_driver     per-bench factory; also returns the parsed
//                           knob values the bench main prints.
//   ShardableBench          type-erased driver for the orchestrator and
//                           merge_partials: run_window (worker side,
//                           wraps run_sharded_panels) + fold/write_series
//                           (reduce side: in-window-order typed merges,
//                           then the series document over [0, runs)).
//   merge_partial_files     merge_partials' reduce step: the registry
//                           bench rebuilt from a shard header, folding
//                           shard files instead of orchestrated windows.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "orch/worker.hpp"
#include "shard_util.hpp"

namespace roleshare::bench {

/// The shard surface of one figure bench, exactly as
/// run_sharded_panels consumes it. All callbacks capture their knobs by
/// value — a driver outlives the argv it was parsed from.
template <typename PartialT>
struct PanelDriver {
  std::string bench_name;
  std::size_t runs = 0;
  std::size_t panel_count = 0;
  util::json::Value header;
  std::function<util::json::Value(std::size_t)> panel_meta;
  std::function<PartialT(std::size_t, sim::RunShard)> run_panel;
  /// Finalizes one fully-merged panel partial into the panel's
  /// deterministic "series" object of the series document.
  std::function<util::json::Value(const PartialT&)> series_json;

  /// Writes the series document of `partials` over runs
  /// [run_begin, run_end): panel i is panel_meta(i) plus its "series".
  /// Bench mains, the orchestrator and merge_partials all write through
  /// here, which is what keeps their files byte-identical.
  void write_series(const std::string& path, std::size_t run_begin,
                    std::size_t run_end,
                    const std::vector<PartialT>& partials) const {
    util::json::Value panels = util::json::Value::array();
    for (std::size_t i = 0; i < panel_count; ++i) {
      util::json::Value panel = panel_meta(i);
      panel.set("series", series_json(partials[i]));
      panels.push_back(std::move(panel));
    }
    write_series_document(path, header, run_begin, run_end,
                          std::move(panels));
  }
};

// ---------------------------------------------------------------- fig3

namespace fig3 {
inline constexpr double kRates[] = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
inline constexpr char kPanels[] = {'a', 'b', 'c', 'd', 'e', 'f'};
inline constexpr double kTrim = 0.2;
}  // namespace fig3

struct Fig3Driver {
  std::size_t nodes = 0;
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::size_t threads = 0;
  std::size_t inner_threads = 0;
  sim::AggBackend agg = sim::AggBackend::Exact;
  PanelDriver<sim::DefectionPartial> panels;
};

inline Fig3Driver make_fig3_driver(int argc, char** argv) {
  Fig3Driver d;
  d.nodes = static_cast<std::size_t>(arg_int(argc, argv, "nodes", 400));
  d.runs = static_cast<std::size_t>(arg_int(argc, argv, "runs", 8));
  d.rounds = static_cast<std::size_t>(arg_int(argc, argv, "rounds", 30));
  d.threads = arg_threads(argc, argv);
  d.inner_threads = arg_inner_threads(argc, argv);
  d.agg = arg_agg(argc, argv);

  d.panels.bench_name = "fig3_defection";
  d.panels.runs = d.runs;
  d.panels.panel_count = std::size(fig3::kRates);
  d.panels.header = shard_document_header(
      std::string(sim::DefectionPayload::kKind), "fig3_defection",
      {{"nodes", d.nodes},
       {"runs", d.runs},
       {"rounds", d.rounds},
       {"agg", sim::to_string(d.agg)},
       {"trim", fig3::kTrim}});
  d.panels.panel_meta = [](std::size_t i) {
    util::json::Value panel = util::json::Value::object();
    panel.set("rate_pct", fig3::kRates[i] * 100.0);
    return panel;
  };
  const auto knobs = d;  // knob values only; panels not yet fully built
  d.panels.run_panel = [knobs](std::size_t i, sim::RunShard sub) {
    sim::DefectionExperimentConfig config;
    config.network.node_count = knobs.nodes;
    config.network.seed = 42 + i;
    config.network.defection_rate = fig3::kRates[i];
    // Mild weak-synchrony churn so the tentative-then-recover pattern
    // the paper highlights (Fig 3-c, rounds 17-20) can emerge;
    // degradation deepens with defection as in the paper's narrative.
    config.network.synchrony.degrade_probability =
        0.05 + fig3::kRates[i] / 2.0;
    config.network.synchrony.degraded_delay_factor = 25.0;
    config.network.synchrony.max_degraded_rounds = 2;
    config.runs = knobs.runs;
    config.rounds = knobs.rounds;
    config.threads = knobs.threads;
    config.inner_threads = knobs.inner_threads;
    config.trim_fraction = fig3::kTrim;
    config.agg = knobs.agg;
    config.shard = sub;
    return sim::run_defection_partial(config);
  };
  d.panels.series_json = [](const sim::DefectionPartial& partial) {
    return defection_series_json(partial.finalize(fig3::kTrim));
  };
  return d;
}

// ---------------------------------------------------------------- fig6

namespace fig6 {
inline const std::array<sim::StakeSpec, 4>& specs() {
  static const std::array<sim::StakeSpec, 4> kSpecs = {
      sim::StakeSpec::uniform(1, 200), sim::StakeSpec::normal(100, 20),
      sim::StakeSpec::normal(100, 10), sim::StakeSpec::normal(2000, 25)};
  return kSpecs;
}
inline constexpr char kPanels[] = {'a', 'b', 'c', 'd'};
}  // namespace fig6

struct Fig6Driver {
  std::size_t nodes = 0;
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::size_t threads = 0;
  std::size_t inner_threads = 0;
  sim::AggBackend agg = sim::AggBackend::Exact;
  PanelDriver<sim::RewardPartial> panels;
};

inline Fig6Driver make_fig6_driver(int argc, char** argv) {
  Fig6Driver d;
  d.nodes = static_cast<std::size_t>(arg_int(argc, argv, "nodes", 100'000));
  d.runs = static_cast<std::size_t>(arg_int(argc, argv, "runs", 40));
  d.rounds = static_cast<std::size_t>(arg_int(argc, argv, "rounds", 10));
  d.threads = arg_threads(argc, argv);
  d.inner_threads = arg_inner_threads(argc, argv);
  d.agg = arg_agg(argc, argv);

  d.panels.bench_name = "fig6_bi_distributions";
  d.panels.runs = d.runs;
  d.panels.panel_count = std::size(fig6::kPanels);
  d.panels.header = shard_document_header(
      std::string(sim::RewardPayload::kKind), "fig6_bi_distributions",
      {{"nodes", d.nodes},
       {"runs", d.runs},
       {"rounds", d.rounds},
       {"agg", sim::to_string(d.agg)}});
  d.panels.panel_meta = [](std::size_t i) {
    util::json::Value panel = util::json::Value::object();
    panel.set("panel", std::string(1, fig6::kPanels[i]));
    panel.set("stakes", fig6::specs()[i].name());
    return panel;
  };
  const auto knobs = d;
  d.panels.run_panel = [knobs](std::size_t i, sim::RunShard sub) {
    sim::RewardExperimentConfig config;
    config.node_count = knobs.nodes;
    config.seed = 1000 + i;
    config.stakes = fig6::specs()[i];
    config.runs = knobs.runs;
    config.rounds_per_run = knobs.rounds;
    config.threads = knobs.threads;
    config.inner_threads = knobs.inner_threads;
    config.agg = knobs.agg;
    config.shard = sub;
    return sim::run_reward_partial(config);
  };
  d.panels.series_json = [](const sim::RewardPartial& partial) {
    return reward_series_json(partial.finalize());
  };
  return d;
}

// ---------------------------------------------------------------- fig7

namespace fig7 {
inline const std::array<sim::StakeSpec, 3>& specs() {
  static const std::array<sim::StakeSpec, 3> kSpecs = {
      sim::StakeSpec::uniform(1, 200), sim::StakeSpec::normal(100, 20),
      sim::StakeSpec::normal(100, 10)};
  return kSpecs;
}
inline constexpr std::int64_t kFilters[] = {3, 5, 7};

/// Panels 0-2: the Fig-7(a/b) stake distributions (seeds 2000+i).
/// Panels 3-5: the Fig-7(c) U_w(1,200) filters (seeds 3000+i).
struct PanelSpec {
  sim::StakeSpec stakes;
  std::optional<std::int64_t> min_stake;
  std::uint64_t seed;
};

inline PanelSpec panel_spec(std::size_t panel) {
  if (panel < 3) return {specs()[panel], std::nullopt, 2000 + panel};
  return {specs()[0], kFilters[panel - 3], 3000 + (panel - 3)};
}
}  // namespace fig7

struct Fig7Driver {
  std::size_t nodes = 0;
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::size_t threads = 0;
  std::size_t inner_threads = 0;
  sim::AggBackend agg = sim::AggBackend::Exact;
  PanelDriver<sim::RewardPartial> panels;
};

inline Fig7Driver make_fig7_driver(int argc, char** argv) {
  Fig7Driver d;
  d.nodes = static_cast<std::size_t>(arg_int(argc, argv, "nodes", 100'000));
  d.runs = static_cast<std::size_t>(arg_int(argc, argv, "runs", 30));
  d.rounds = static_cast<std::size_t>(arg_int(argc, argv, "rounds", 10));
  d.threads = arg_threads(argc, argv);
  d.inner_threads = arg_inner_threads(argc, argv);
  d.agg = arg_agg(argc, argv);

  d.panels.bench_name = "fig7_reward_comparison";
  d.panels.runs = d.runs;
  d.panels.panel_count = 6;
  d.panels.header = shard_document_header(
      std::string(sim::RewardPayload::kKind), "fig7_reward_comparison",
      {{"nodes", d.nodes},
       {"runs", d.runs},
       {"rounds", d.rounds},
       {"agg", sim::to_string(d.agg)}});
  d.panels.panel_meta = [](std::size_t panel) {
    const fig7::PanelSpec spec = fig7::panel_spec(panel);
    util::json::Value v = util::json::Value::object();
    v.set("stakes", spec.stakes.name());
    v.set("min_other_stake", spec.min_stake
                                 ? util::json::Value(*spec.min_stake)
                                 : util::json::Value());
    v.set("seed", spec.seed);
    return v;
  };
  const auto knobs = d;
  d.panels.run_panel = [knobs](std::size_t panel, sim::RunShard sub) {
    const fig7::PanelSpec spec = fig7::panel_spec(panel);
    sim::RewardExperimentConfig config;
    config.node_count = knobs.nodes;
    config.seed = spec.seed;
    config.stakes = spec.stakes;
    config.runs = knobs.runs;
    config.rounds_per_run = knobs.rounds;
    config.threads = knobs.threads;
    config.inner_threads = knobs.inner_threads;
    config.agg = knobs.agg;
    config.shard = sub;
    config.min_other_stake = spec.min_stake;
    return sim::run_reward_partial(config);
  };
  d.panels.series_json = [](const sim::RewardPartial& partial) {
    return reward_series_json(partial.finalize());
  };
  return d;
}

// ------------------------------------------------------ scenario_sweep

namespace scenario {
inline constexpr double kLevels[] = {0.05, 0.15, 0.30};
inline constexpr std::size_t kCheckedLevel = 1;  // middle level, re-run
// The §III-C trim; must equal DefectionExperimentConfig::trim_fraction
// (the serial self-check finalizes through run_defection_experiment,
// which uses the config's value).
inline constexpr double kTrim = 0.2;

struct PolicyCase {
  const char* name;
  sim::PolicyKind kind;
  bool churn;
};

inline constexpr PolicyCase kPolicies[] = {
    {"scripted", sim::PolicyKind::Scripted, false},
    {"adaptive", sim::PolicyKind::AdaptiveDefect, false},
    {"stake", sim::PolicyKind::StakeCorrelatedDefect, false},
    {"churn", sim::PolicyKind::Scripted, true},
};
inline constexpr std::size_t kPanelCount =
    std::size(kPolicies) * std::size(kLevels);

/// Panel p = policy p / |levels|, level p % |levels|.
inline const PolicyCase& panel_policy(std::size_t panel) {
  return kPolicies[panel / std::size(kLevels)];
}
inline std::size_t panel_level(std::size_t panel) {
  return panel % std::size(kLevels);
}
}  // namespace scenario

struct ScenarioDriver {
  std::size_t nodes = 0;
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t inner_threads = 0;
  sim::AggBackend agg = sim::AggBackend::Exact;
  /// The full per-panel config — exposed (not just run_panel) because
  /// the sweep's serial self-check re-runs it with threads forced to 1.
  std::function<sim::DefectionExperimentConfig(std::size_t, sim::RunShard)>
      panel_config;
  PanelDriver<sim::DefectionPartial> panels;
};

inline ScenarioDriver make_scenario_driver(int argc, char** argv) {
  ScenarioDriver d;
  d.nodes = static_cast<std::size_t>(arg_int(argc, argv, "nodes", 120));
  d.runs = static_cast<std::size_t>(arg_int(argc, argv, "runs", 6));
  d.rounds = static_cast<std::size_t>(arg_int(argc, argv, "rounds", 8));
  d.seed = static_cast<std::uint64_t>(arg_int(argc, argv, "seed", 99));
  d.threads = arg_threads(argc, argv);
  d.inner_threads = arg_inner_threads(argc, argv);
  d.agg = arg_agg(argc, argv);

  struct Knobs {
    std::size_t nodes, runs, rounds, threads, inner_threads;
    std::uint64_t seed;
    sim::AggBackend agg;
  };
  const Knobs knobs{d.nodes, d.runs,  d.rounds, d.threads,
                    d.inner_threads, d.seed,  d.agg};
  d.panel_config = [knobs](std::size_t panel, sim::RunShard sub) {
    const scenario::PolicyCase& policy = scenario::panel_policy(panel);
    const std::size_t level_idx = scenario::panel_level(panel);
    const double level = scenario::kLevels[level_idx];
    sim::DefectionExperimentConfig config;
    config.network.node_count = knobs.nodes;
    config.network.seed = knobs.seed + level_idx;
    config.runs = knobs.runs;
    config.rounds = knobs.rounds;
    config.threads = knobs.threads;
    config.inner_threads = knobs.inner_threads;
    config.agg = knobs.agg;
    config.policy.kind = policy.kind;
    switch (policy.kind) {
      case sim::PolicyKind::Scripted:
      case sim::PolicyKind::AdaptiveDefect:
        config.network.defection_rate = level;
        break;
      case sim::PolicyKind::StakeCorrelatedDefect:
        // Linear percentile curve whose population mean equals `level`.
        config.policy.defect_at_bottom = std::min(1.0, 2.0 * level);
        config.policy.defect_at_top = 0.0;
        break;
    }
    if (policy.churn) {
      config.policy.churn.leave_probability = 0.06;
      config.policy.churn.join_probability = 0.12;
      config.policy.churn.min_live =
          std::max<std::size_t>(4, knobs.nodes / 4);
    }
    config.trim_fraction = scenario::kTrim;
    config.shard = sub;
    return config;
  };

  d.panels.bench_name = "scenario_sweep";
  d.panels.runs = d.runs;
  d.panels.panel_count = scenario::kPanelCount;
  d.panels.header = shard_document_header(
      std::string(sim::DefectionPayload::kKind), "scenario_sweep",
      {{"nodes", d.nodes},
       {"runs", d.runs},
       {"rounds", d.rounds},
       {"seed", d.seed},
       {"agg", sim::to_string(d.agg)},
       {"trim", scenario::kTrim}});
  d.panels.panel_meta = [](std::size_t panel) {
    util::json::Value v = util::json::Value::object();
    v.set("policy", std::string(scenario::panel_policy(panel).name));
    v.set("level_pct",
          scenario::kLevels[scenario::panel_level(panel)] * 100.0);
    return v;
  };
  const auto panel_config = d.panel_config;
  d.panels.run_panel = [panel_config](std::size_t panel, sim::RunShard sub) {
    return sim::run_defection_partial(panel_config(panel, sub));
  };
  d.panels.series_json = [](const sim::DefectionPartial& partial) {
    return defection_series_json(partial.finalize(scenario::kTrim));
  };
  return d;
}

// -------------------------------------------------- strategic_ensemble

namespace strategic {
inline constexpr sim::SchemeChoice kSchemes[] = {
    sim::SchemeChoice::FoundationStakeProportional,
    sim::SchemeChoice::RoleBasedAdaptive};
inline constexpr const char* kSchemeNames[] = {"foundation", "role-based"};
}  // namespace strategic

struct StrategicDriver {
  std::size_t nodes = 0;
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t inner_threads = 0;
  sim::AggBackend agg = sim::AggBackend::Exact;
  PanelDriver<sim::StrategicPartial> panels;
};

inline StrategicDriver make_strategic_driver(int argc, char** argv) {
  StrategicDriver d;
  d.nodes = static_cast<std::size_t>(arg_int(argc, argv, "nodes", 150));
  d.runs = static_cast<std::size_t>(arg_int(argc, argv, "runs", 6));
  d.rounds = static_cast<std::size_t>(arg_int(argc, argv, "rounds", 10));
  d.seed = static_cast<std::uint64_t>(arg_int(argc, argv, "seed", 99));
  d.threads = arg_threads(argc, argv);
  d.inner_threads = arg_inner_threads(argc, argv);
  d.agg = arg_agg(argc, argv);

  d.panels.bench_name = "strategic_ensemble";
  d.panels.runs = d.runs;
  d.panels.panel_count = std::size(strategic::kSchemes);
  d.panels.header = shard_document_header(
      std::string(sim::StrategicPayload::kKind), "strategic_ensemble",
      {{"nodes", d.nodes},
       {"runs", d.runs},
       {"rounds", d.rounds},
       {"seed", d.seed},
       {"agg", sim::to_string(d.agg)}});
  d.panels.panel_meta = [](std::size_t panel) {
    util::json::Value v = util::json::Value::object();
    v.set("scheme", std::string(strategic::kSchemeNames[panel]));
    return v;
  };
  const auto knobs = d;
  d.panels.run_panel = [knobs](std::size_t panel, sim::RunShard sub) {
    sim::StrategicEnsembleConfig config;
    config.base.network.node_count = knobs.nodes;
    config.base.network.seed = knobs.seed;
    config.base.rounds = knobs.rounds;
    config.base.scheme = strategic::kSchemes[panel];
    config.runs = knobs.runs;
    config.threads = knobs.threads;
    config.inner_threads = knobs.inner_threads;
    config.agg = knobs.agg;
    config.shard = sub;
    return sim::run_strategic_partial(config);
  };
  d.panels.series_json = [](const sim::StrategicPartial& partial) {
    return strategic_series_json(partial.finalize());
  };
  return d;
}

// ------------------------------------------------------ fig_longhorizon

namespace longhorizon {
inline constexpr double kDefectionRates[] = {0.0, 0.10, 0.30};
inline constexpr std::size_t kPanels = 3;
inline constexpr double kAlpha = 0.30;
inline constexpr double kBeta = 0.30;
inline constexpr double kTopFraction = 0.01;
}  // namespace longhorizon

struct LongHorizonDriver {
  std::size_t nodes = 0;
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::size_t threads = 0;
  std::size_t inner_threads = 0;
  sim::AggBackend agg = sim::AggBackend::Exact;
  double alpha = 0.0;
  double beta = 0.0;
  double top_fraction = 0.0;
  PanelDriver<sim::LongHorizonPartial> panels;
};

inline LongHorizonDriver make_longhorizon_driver(int argc, char** argv) {
  LongHorizonDriver d;
  d.nodes = static_cast<std::size_t>(arg_int(argc, argv, "nodes", 100'000));
  d.runs = static_cast<std::size_t>(arg_int(argc, argv, "runs", 4));
  d.rounds = static_cast<std::size_t>(arg_int(argc, argv, "rounds", 2000));
  d.threads = arg_threads(argc, argv);
  d.inner_threads = arg_inner_threads(argc, argv);
  d.agg = arg_agg(argc, argv);
  d.alpha = arg_real(argc, argv, "alpha", longhorizon::kAlpha);
  d.beta = arg_real(argc, argv, "beta", longhorizon::kBeta);
  d.top_fraction =
      arg_real(argc, argv, "top-fraction", longhorizon::kTopFraction);

  d.panels.bench_name = "fig_longhorizon";
  d.panels.runs = d.runs;
  d.panels.panel_count = longhorizon::kPanels;
  std::vector<std::pair<std::string, util::json::Value>> echo = {
      {"nodes", d.nodes},
      {"runs", d.runs},
      {"rounds", d.rounds},
      {"agg", sim::to_string(d.agg)}};
  // These knobs joined the header after documents already existed, so
  // they are echoed only away from their defaults: default-config
  // documents and store keys keep their bytes, and any other value
  // still reaches the store key and the resume/fold header check.
  if (d.alpha != longhorizon::kAlpha) echo.emplace_back("alpha", d.alpha);
  if (d.beta != longhorizon::kBeta) echo.emplace_back("beta", d.beta);
  if (d.top_fraction != longhorizon::kTopFraction)
    echo.emplace_back("top_fraction", d.top_fraction);
  d.panels.header = shard_document_header(
      std::string(sim::LongHorizonPayload::kKind), "fig_longhorizon",
      std::move(echo));
  d.panels.panel_meta = [](std::size_t panel) {
    util::json::Value v = util::json::Value::object();
    v.set("defection_rate", longhorizon::kDefectionRates[panel]);
    v.set("seed", 4000 + panel);
    return v;
  };
  const auto knobs = d;
  d.panels.run_panel = [knobs](std::size_t panel, sim::RunShard sub) {
    sim::LongHorizonConfig config;
    config.node_count = knobs.nodes;
    config.seed = 4000 + panel;
    config.defection_rate = longhorizon::kDefectionRates[panel];
    config.runs = knobs.runs;
    config.rounds_per_run = knobs.rounds;
    config.threads = knobs.threads;
    config.inner_threads = knobs.inner_threads;
    config.alpha = knobs.alpha;
    config.beta = knobs.beta;
    config.top_fraction = knobs.top_fraction;
    config.agg = knobs.agg;
    config.shard = sub;
    return sim::run_longhorizon_partial(config);
  };
  d.panels.series_json = [](const sim::LongHorizonPartial& partial) {
    return longhorizon_series_json(partial.finalize());
  };
  return d;
}

// --------------------------------------------- type-erased orchestration

/// A bench the orchestrator and merge_partials can drive without knowing
/// its partial type. The worker side calls run_window
/// (run_sharded_panels under the coordinator-supplied knobs); the reduce
/// side folds each finished window's partial-document bytes IN WINDOW
/// ORDER and finally writes the series document through the driver's
/// write_series — the same path a single-process --series-out takes,
/// which is why the output is byte-identical to it.
struct ShardableBench {
  std::string bench_name;
  std::size_t runs = 0;
  /// The shard-document header dump — the HELLO config echo.
  std::string config_echo;
  std::function<orch::WindowOutcome(const ShardKnobs&)> run_window;
  std::function<void(const std::string& bytes, std::size_t run_begin,
                     std::size_t run_end, const std::string& origin)>
      fold;
  /// Writes the final series document; callable once every window in
  /// [0, runs) has been folded.
  std::function<void(const std::string& series_out)> write_series;
  /// The folded [0, runs) partial document (what a single-process
  /// --partial-out would hold); same precondition as write_series.
  std::function<util::json::Value()> folded_document;
};

template <typename PartialT>
ShardableBench make_shardable_bench(PanelDriver<PartialT> driver) {
  struct FoldState {
    std::vector<PartialT> partials;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool any = false;
  };
  auto state = std::make_shared<FoldState>();

  ShardableBench bench;
  bench.bench_name = driver.bench_name;
  bench.runs = driver.runs;
  bench.config_echo = driver.header.dump();
  bench.run_window = [driver](const ShardKnobs& knobs) {
    const ShardExecution<PartialT> exec = run_sharded_panels<PartialT>(
        knobs, driver.panel_count, driver.header, driver.panel_meta,
        driver.run_panel);
    orch::WindowOutcome outcome;
    outcome.cursor = exec.cursor;
    outcome.executed = exec.executed;
    outcome.complete = exec.complete();
    outcome.store_hit = exec.store_hit;
    outcome.partial_bytes = exec.partial_bytes;
    return outcome;
  };
  bench.fold = [driver, state](const std::string& bytes,
                               std::size_t run_begin, std::size_t run_end,
                               const std::string& origin) {
    ShardExecution<PartialT> exec = load_finished_window<PartialT>(
        bytes, origin, driver.header, driver.panel_meta, driver.panel_count,
        run_begin, run_end);
    if (!state->any) {
      state->partials = std::move(exec.partials);
      state->begin = run_begin;
      state->end = run_end;
      state->any = true;
      return;
    }
    if (run_begin != state->end) {
      throw std::runtime_error(
          origin + " begins at run " + std::to_string(run_begin) +
          " but the fold frontier is at " + std::to_string(state->end) +
          " — windows must fold in order");
    }
    // The envelope merge re-checks spec hash, backend and contiguity.
    for (std::size_t i = 0; i < state->partials.size(); ++i)
      state->partials[i].merge(exec.partials[i]);
    state->end = run_end;
  };
  const auto folded = [runs = driver.runs,
                       state]() -> const std::vector<PartialT>& {
    if (!state->any || state->begin != 0 || state->end != runs) {
      throw std::runtime_error(
          "only runs [" + std::to_string(state->begin) + ", " +
          std::to_string(state->end) + ") of [0, " + std::to_string(runs) +
          ") are folded");
    }
    return state->partials;
  };
  bench.write_series = [driver, folded](const std::string& series_out) {
    driver.write_series(series_out, 0, driver.runs, folded());
  };
  bench.folded_document = [driver, folded]() {
    return partial_document(driver.header, 0, driver.runs, driver.runs,
                            folded(), driver.panel_meta);
  };
  return bench;
}

inline constexpr const char* kShardableBenchNames =
    "fig3_defection, fig6_bi_distributions, fig7_reward_comparison, "
    "scenario_sweep, strategic_ensemble, fig_longhorizon";

/// Name-dispatched registry over every shard-capable bench. Coordinator
/// and workers both call this with the SAME argv — the single source of
/// config truth behind the HELLO echo check.
inline ShardableBench make_shardable_bench(const std::string& bench,
                                           int argc, char** argv) {
  if (bench == "fig3_defection")
    return make_shardable_bench(make_fig3_driver(argc, argv).panels);
  if (bench == "fig6_bi_distributions")
    return make_shardable_bench(make_fig6_driver(argc, argv).panels);
  if (bench == "fig7_reward_comparison")
    return make_shardable_bench(make_fig7_driver(argc, argv).panels);
  if (bench == "scenario_sweep")
    return make_shardable_bench(make_scenario_driver(argc, argv).panels);
  if (bench == "strategic_ensemble")
    return make_shardable_bench(make_strategic_driver(argc, argv).panels);
  if (bench == "fig_longhorizon")
    return make_shardable_bench(make_longhorizon_driver(argc, argv).panels);
  throw std::invalid_argument("--bench=" + bench +
                              " is not shard-capable — pick one of: " +
                              kShardableBenchNames);
}

/// The registry bench that wrote a shard-document header, rebuilt from
/// the header alone: every echoed field becomes the flag that sets it
/// ("nodes": 60 -> --nodes=60, "top_fraction" -> --top-fraction=...)
/// and the factory parses that argv as the bench main would. Fields no
/// factory parses ("kind", "trim") are ignored; whatever the rebuilt
/// bench echoes, load_partial_document compares against every document
/// folded into it.
inline ShardableBench shardable_bench_of(const util::json::Value& header) {
  std::vector<std::string> args = {"merge_partials"};
  for (const auto& [key, value] : header.as_object()) {
    if (is_window_key(key)) continue;
    std::string flag = key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    args.push_back("--" + flag + "=" +
                   (value.is_string() ? value.as_string() : value.dump()));
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return make_shardable_bench(header.at("bench").as_string(),
                              static_cast<int>(argv.size()), argv.data());
}

/// The reduce step of a sharded sweep (the merge_partials CLI). Reads
/// every shard file (RSBP, or JSON from an earlier build), rebuilds the
/// bench from the first shard's header, refuses any set that does not
/// tile [0, runs) before merging (sim::check_shard_tiling), then folds
/// the shards in run order through ShardableBench::fold and writes
/// `series_out` with write_series: the orchestrator's reduce path, fed
/// from files. With `store_dir` the folded [0, runs) document is also
/// published, so a later whole-range bench run is a cache hit. Every
/// refusal names the offending file.
inline void merge_partial_files(const std::vector<std::string>& paths,
                                const std::string& series_out,
                                const std::string& store_dir) {
  struct Shard {
    std::string bytes;
    sim::ShardWindow window;
  };
  std::vector<Shard> shards;
  std::optional<ShardableBench> bench;
  for (const std::string& path : paths) {
    std::string bytes = read_text_file(path);
    std::printf("[shard] %s: %zu bytes\n", path.c_str(), bytes.size());
    const util::json::Value doc = sim::decode_partial_document(bytes, path);
    if (!bench) {
      try {
        bench = shardable_bench_of(doc);
      } catch (const std::exception& e) {
        throw std::invalid_argument("shard " + path + ": " + e.what());
      }
    }
    shards.push_back({std::move(bytes),
                      {doc.at("run_begin").as_size(),
                       doc.at("run_end").as_size(),
                       doc.at("window_end").as_size(), path}});
  }
  if (!bench) throw std::invalid_argument("no shard files to merge");

  std::vector<sim::ShardWindow> windows;
  for (const Shard& shard : shards) windows.push_back(shard.window);
  sim::check_shard_tiling(std::move(windows), bench->runs);
  std::sort(shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
    return a.window.run_begin < b.window.run_begin;
  });
  std::printf("merging %zu %s shards, runs [0, %zu)\n", shards.size(),
              bench->bench_name.c_str(), bench->runs);
  for (const Shard& shard : shards) {
    bench->fold(shard.bytes, shard.window.run_begin, shard.window.run_end,
                shard.window.label);
  }
  bench->write_series(series_out);

  if (store_dir.empty()) return;
  const std::string bytes =
      sim::partial_codec(kPartialFormat).encode(bench->folded_document());
  const std::string entry = sim::ResultStore(store_dir).insert(
      store_key_of(util::json::parse(bench->config_echo), 0, bench->runs),
      bytes);
  std::printf("[store] published merged runs [0, %zu) to %s (%zu bytes)\n",
              bench->runs, entry.c_str(), bytes.size());
}

}  // namespace roleshare::bench
