// The traced run's layer passes. Each replays one workload's calls with a
// span around every call into a module (crypto, consensus, net, ledger,
// econ, sim, util, orch), reports per-layer metrics, and checks that the
// replay computed exactly what the workload's own call computes.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "consensus/committee.hpp"
#include "consensus/roles.hpp"
#include "consensus/votes.hpp"
#include "crypto/sortition.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/sparse_payout.hpp"
#include "net/gossip.hpp"
#include "sim/round_engine.hpp"
#include "sim/sampled_round.hpp"
#include "util/streaming_stats.hpp"
#include "workloads.hpp"

namespace rsbench {

namespace bench = roleshare::bench;
namespace consensus = roleshare::consensus;
namespace crypto = roleshare::crypto;
namespace econ = roleshare::econ;
namespace json = roleshare::util::json;
namespace ledger = roleshare::ledger;
namespace net = roleshare::net;
namespace sim = roleshare::sim;
namespace util = roleshare::util;

namespace {

using roleshare::game::Strategy;

/// Exact equality of a replayed per-round series with the series array
/// the workload's own call finalized; "" when equal.
std::string compare_series(const char* key, const std::vector<double>& replay,
                           const json::Value& series, double scale) {
  const json::Value::Array& expected = series.at(key).as_array();
  if (expected.size() != replay.size())
    return std::string(key) + ": replay has " + std::to_string(replay.size()) +
           " rounds, the run " + std::to_string(expected.size());
  for (std::size_t r = 0; r < replay.size(); ++r) {
    if (replay[r] * scale != expected[r].as_number())
      return std::string(key) + " differs at round " + std::to_string(r);
  }
  return "";
}

/// make_fig3_driver's panel config (the replay must mirror it; the
/// replay-vs-run_panel check fails if the two ever drift apart).
sim::DefectionExperimentConfig fig3_panel_config(std::size_t i,
                                                 const Sizes& sizes) {
  sim::DefectionExperimentConfig config;
  config.network.node_count = sizes.nodes;
  config.network.seed = 42 + i;
  config.network.defection_rate = bench::fig3::kRates[i];
  config.network.synchrony.degrade_probability =
      0.05 + bench::fig3::kRates[i] / 2.0;
  config.network.synchrony.degraded_delay_factor = 25.0;
  config.network.synchrony.max_degraded_rounds = 2;
  config.rounds = sizes.rounds;
  config.trim_fraction = bench::fig3::kTrim;
  return config;
}

/// The consensus parameters sim::run_defection_partial runs a network
/// under (params re-scaled to the run's total stake).
consensus::ConsensusParams fig3_params(
    const sim::DefectionExperimentConfig& config, const sim::Network& network) {
  consensus::ConsensusParams params = config.params;
  if (config.scale_params_to_stake) {
    params = consensus::ConsensusParams::scaled_for(
        network.accounts().total_stake());
    params.step_threshold = config.params.step_threshold;
    params.final_threshold = config.params.final_threshold;
    params.max_binary_iterations = config.params.max_binary_iterations;
    params.proposal_timeout_ms = config.params.proposal_timeout_ms;
    params.step_timeout_ms = config.params.step_timeout_ms;
  }
  return params;
}

std::size_t count_role(const std::optional<econ::RoleSnapshot>& roles,
                       consensus::Role role) {
  return roles ? roles->count(role) : 0;
}

/// Per-call durations scaled per unit of work (e.g. µs per node).
std::vector<double> per_unit_us(const std::vector<double>& ms,
                                const std::vector<double>& units) {
  std::vector<double> out;
  for (std::size_t i = 0; i < ms.size() && i < units.size(); ++i) {
    if (units[i] > 0) out.push_back(ms[i] * 1000.0 / units[i]);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ fig3_dense

void trace_fig3_layers(const Options& options, Records& records,
                       const std::string& spans_path) {
  const Sizes sizes = sizes_for("fig3_dense", options.smoke);
  const std::size_t run = options.seed * kRunStride;
  Tracer tracer(1);

  std::vector<double> round_allocs, proposals, committee, voters, votes;
  std::size_t rounds_total = 0, nonempty = 0;
  std::vector<double> fin0, tent0, none0;  // panel 0, for the cross-check
  std::string chain_error, vote_error, outcome_error;

  // Probe scratch, reused across rounds.
  std::vector<std::int64_t> stakes;
  std::vector<crypto::SortitionResult> draws, committee_draws;
  consensus::Committee probe_committee;
  std::vector<consensus::Vote> probe_votes;
  std::vector<std::uint8_t> valid;
  net::GossipScratch gossip_scratch;
  std::vector<net::TimeMs> arrival;

  for (std::size_t panel = 0; panel < std::size(bench::fig3::kRates);
       ++panel) {
    const sim::DefectionExperimentConfig config =
        fig3_panel_config(panel, sizes);
    sim::NetworkConfig net_config = config.network;
    net_config.seed = sim::seed_for_run(config.network.seed, run);
    std::optional<sim::Network> network;
    {
      const Scope span(&tracer, "sim.Network");
      network.emplace(net_config);
    }
    const consensus::ConsensusParams params = fig3_params(config, *network);
    sim::RoundEngine engine(*network, params);

    const std::size_t n = network->node_count();
    net::RelaySet relay;
    relay.relays.assign(n, 0);
    relay.online.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      const Strategy s = network->strategies()[v];
      relay.online[v] = network->live_mask()[v] && s != Strategy::Offline;
      relay.relays[v] = network->live_mask()[v] && s == Strategy::Cooperate;
    }

    for (std::size_t r = 0; r < sizes.rounds; ++r) {
      const Scope round_span(&tracer, "replay.fig3_round");
      sim::RoundResult result;
      const std::uint64_t allocs_before = bench::alloc_count();
      {
        const Scope span(&tracer, "sim.round");
        result = engine.run_round();
      }
      round_allocs.push_back(
          static_cast<double>(bench::alloc_count() - allocs_before));
      ++rounds_total;
      if (result.non_empty_block) ++nonempty;
      proposals.push_back(static_cast<double>(result.proposals));
      committee.push_back(static_cast<double>(
          count_role(result.roles_true, consensus::Role::Committee)));
      voters.push_back(static_cast<double>(
          count_role(result.roles, consensus::Role::Committee)));
      const double sum = result.final_fraction + result.tentative_fraction +
                         result.none_fraction;
      if (std::abs(sum - 1.0) > 1e-9 && outcome_error.empty())
        outcome_error = "panel " + std::to_string(panel) + " round " +
                        std::to_string(r) + ": outcome fractions sum to " +
                        std::to_string(sum);
      if (panel == 0) {
        fin0.push_back(result.final_fraction);
        tent0.push_back(result.tentative_fraction);
        none0.push_back(result.none_fraction);
      }

      // Probes on this round's state, for the next round's first
      // Reduction step. None mutates the network.
      network->accounts().stakes_into(stakes);
      std::int64_t total = 0;
      for (std::size_t v = 0; v < n; ++v) {
        if (!network->live(static_cast<ledger::NodeId>(v))) stakes[v] = 0;
        total += stakes[v];
      }
      const ledger::Round next = network->chain().next_round();
      const crypto::Hash256 seed = network->chain().current_seed();
      const crypto::VrfInput input{next, consensus::kReductionStep1, seed};
      const crypto::SortitionParams step_params{params.expected_step_stake,
                                                total};
      {
        const Scope span(&tracer, "crypto.sortition_batch");
        crypto::sortition_batch_into(network->keys(), input, stakes,
                                     step_params, draws);
      }
      {
        const Scope span(&tracer, "consensus.elect_committee");
        consensus::elect_committee_into(
            network->keys(), stakes, next, consensus::kReductionStep1, seed,
            params.expected_step_stake, total, probe_committee,
            committee_draws);
      }
      probe_votes.clear();
      for (const consensus::CommitteeMember& m : probe_committee.members) {
        probe_votes.push_back(consensus::make_vote(
            m.node, network->keys()[m.node].public_key(), next,
            consensus::kReductionStep1, seed, m.sortition));
      }
      votes.push_back(static_cast<double>(probe_votes.size()));
      {
        const Scope span(&tracer, "consensus.verify_votes");
        consensus::verify_votes_into(probe_votes, seed, stakes, step_params,
                                     valid);
      }
      if (std::count(valid.begin(), valid.end(), 0) > 0 && vote_error.empty())
        vote_error = "an honestly built probe vote failed verification";
      {
        const Scope span(&tracer, "net.gossip.propagate");
        const net::GossipEngine gossip(network->topology(), network->delays(),
                                       network->synchrony().delay_factor());
        util::Rng rng = network->round_rng(next).split("rsbench.probe");
        const ledger::NodeId origin =
            probe_committee.members.empty()
                ? 0
                : probe_committee.members.front().node;
        gossip.propagate_into(origin, 0.0, relay, rng, arrival,
                              gossip_scratch);
      }
    }
    // Genesis is block 0, so a run of R rounds leaves height R + 1.
    if (network->chain().height() != sizes.rounds + 1 && chain_error.empty())
      chain_error = "panel " + std::to_string(panel) + ": chain height " +
                    std::to_string(network->chain().height()) + " after " +
                    std::to_string(sizes.rounds) + " rounds";
  }

  // The workload's own call for panel 0 must yield the replayed series.
  const OpResult op0 = make_workload(options, "fig3_dense")->run_op(0, nullptr);
  std::string replay_error = op0.cause;
  for (const auto& [key, replay] :
       {std::pair{"final", &fin0}, std::pair{"tentative", &tent0},
        std::pair{"none", &none0}}) {
    if (replay_error.empty())
      replay_error = compare_series(key, *replay, op0.series, 100.0);
  }
  records.check("fig3.replay_matches_run_panel", replay_error.empty(),
                replay_error);
  records.check("fig3.chain_height_equals_rounds", chain_error.empty(),
                chain_error);
  records.check("fig3.outcomes_sum_to_100pct", outcome_error.empty(),
                outcome_error);
  records.check("fig3.probe_votes_verify", vote_error.empty(), vote_error);

  const std::vector<double> round_ms = tracer.durations_ms("sim.round");
  records.metric("sim.round.ms_p50", quantile(round_ms, 0.5), "ms");
  records.metric("sim.round.ms_p95", quantile(round_ms, 0.95), "ms");
  records.metric("sim.round.allocs", median(round_allocs), "count");
  records.metric("crypto.sortition_batch.us_per_node",
                 median(tracer.durations_ms("crypto.sortition_batch")) *
                     1000.0 / static_cast<double>(sizes.nodes),
                 "us");
  records.metric("consensus.elect_committee.ms",
                 median(tracer.durations_ms("consensus.elect_committee")),
                 "ms");
  records.metric(
      "consensus.verify_votes.us_per_vote",
      median(per_unit_us(tracer.durations_ms("consensus.verify_votes"), votes)),
      "us");
  records.metric("net.gossip.propagate_ms",
                 median(tracer.durations_ms("net.gossip.propagate")), "ms");
  records.metric("consensus.proposals_per_round", mean(proposals), "count");
  records.metric("consensus.committee_per_round", mean(committee), "count");
  records.metric("consensus.voters_per_round", mean(voters), "count");
  records.metric("ledger.nonempty_block_ratio",
                 static_cast<double>(nonempty) /
                     static_cast<double>(rounds_total),
                 "ratio");
  tracer.append_to(spans_path);
  print_self_times("fig3_dense replay", tracer);
}

// ---------------------------------------------------- longhorizon_sparse

void trace_longhorizon_layers(const Options& options, Records& records,
                              const std::string& spans_path) {
  const Sizes sizes = sizes_for("longhorizon_sparse", options.smoke);
  const std::size_t run = options.seed * kRunStride;
  // Panel 1 (10% defectors): hidden roles make credited < touched.
  constexpr std::size_t kPanel = 1;
  // make_longhorizon_driver's panel config (defaults for the rest).
  sim::LongHorizonConfig config;
  config.node_count = sizes.nodes;
  config.seed = 4000 + kPanel;
  config.defection_rate = bench::longhorizon::kDefectionRates[kPanel];
  config.rounds_per_run = sizes.rounds;
  Tracer tracer(2);

  // The workload's own call first: the replay is checked against it, and
  // its wall time is the base of the sparse-round share.
  const OpResult op0 =
      make_workload(options, "longhorizon_sparse")->run_op(kPanel, nullptr);

  sim::NetworkConfig nc;
  nc.node_count = config.node_count;
  nc.seed = sim::seed_for_run(config.seed, run);
  nc.fan_out = config.fan_out;
  nc.stake_lo = config.stake_lo;
  nc.stake_hi = config.stake_hi;
  nc.defection_rate = config.defection_rate;
  nc.faulty_rate = config.faulty_rate;
  nc.delay_lo_ms = config.delay_lo_ms;
  nc.delay_hi_ms = config.delay_hi_ms;

  // Hand freed heap (op0's network) back to the OS first, so the RSS delta
  // counts the new network and nothing the process merely kept.
  malloc_trim(0);
  const double rss_before = current_rss_bytes();
  std::optional<sim::Network> network;
  {
    const Scope span(&tracer, "sim.network_build");
    network.emplace(nc);
  }
  consensus::ConsensusParams params =
      consensus::ConsensusParams::scaled_for(network->accounts().total_stake());
  params.committee_model = consensus::CommitteeModel::Sampled;
  sim::RoundEngine engine(*network, params);
  sim::SparseRoundContext ctx;
  {
    const Scope span(&tracer, "sim.sparse_ctx_init");
    ctx.init_from(*network);
  }
  sim::SparseRoundWorkspace scratch;
  sim::SparseRoundResult sparse;

  const std::size_t n = network->node_count();
  std::vector<std::uint8_t> defector(n, 0);
  util::StakeConcentration concentration;
  util::CohortWealthCorrelation cohort;
  {
    const Scope span(&tracer, "util.concentration_init");
    for (std::size_t v = 0; v < n; ++v) {
      const std::int64_t stake =
          network->accounts().stake(static_cast<ledger::NodeId>(v));
      defector[v] = network->strategies()[v] == Strategy::Defect ? 1 : 0;
      concentration.add(stake);
      cohort.add(stake, defector[v] != 0);
    }
  }
  const double rss_after = current_rss_bytes();

  const econ::RewardSplit split(config.alpha, config.beta);
  std::vector<consensus::Role> roles;
  std::vector<std::int64_t> role_stakes, before, after;
  std::vector<ledger::MicroAlgos> amounts;
  std::vector<double> gini, top_share, corr, final_pct, allocs;
  std::size_t touched_total = 0, credited_total = 0;
  gini.reserve(sizes.rounds);
  top_share.reserve(sizes.rounds);
  corr.reserve(sizes.rounds);
  final_pct.reserve(sizes.rounds);
  allocs.reserve(sizes.rounds);

  // sim::run_longhorizon_partial's round loop, split into one span per
  // module: payouts, ledger credits, context refreshes and sketch updates
  // each touch disjoint state, so running them as separate passes over
  // the touched set computes exactly what the interleaved loop does.
  for (std::size_t r = 0; r < sizes.rounds; ++r) {
    const Scope round_span(&tracer, "replay.longhorizon_round");
    const std::uint64_t allocs_before = bench::alloc_count();
    {
      const Scope span(&tracer, "sim.sparse_round");
      engine.run_round_sparse_into(sparse, ctx, scratch);
    }
    allocs.push_back(static_cast<double>(bench::alloc_count() - allocs_before));
    const ledger::MicroAlgos budget = econ::FoundationSchedule::
        reward_for_round(std::max<ledger::Round>(sparse.round, 1));
    const std::size_t nt = sparse.touched.size();
    roles.clear();
    role_stakes.clear();
    for (const sim::SparseNodeRole& t : sparse.touched) {
      roles.push_back(t.role_observed);
      role_stakes.push_back(t.reward_stake);
    }
    amounts.assign(nt, 0);
    {
      const Scope span(&tracer, "econ.distribute_touched");
      econ::distribute_touched(split, budget, roles, role_stakes,
                               sparse.online_stake, amounts);
    }
    before.assign(nt, 0);
    after.assign(nt, 0);
    {
      const Scope span(&tracer, "ledger.credit");
      for (std::size_t i = 0; i < nt; ++i) {
        if (amounts[i] == 0) continue;
        const ledger::NodeId v = sparse.touched[i].node;
        before[i] = network->accounts().stake(v);
        network->accounts().credit(v, amounts[i]);
        after[i] = network->accounts().stake(v);
      }
    }
    {
      const Scope span(&tracer, "sim.refresh_node");
      for (std::size_t i = 0; i < nt; ++i) {
        if (before[i] != after[i])
          ctx.refresh_node(*network, sparse.touched[i].node);
      }
    }
    {
      const Scope span(&tracer, "util.concentration");
      for (std::size_t i = 0; i < nt; ++i) {
        if (before[i] == after[i]) continue;
        concentration.update(before[i], after[i]);
        cohort.update(before[i], after[i],
                      defector[sparse.touched[i].node] != 0);
      }
      gini.push_back(concentration.gini());
      top_share.push_back(concentration.top_share(config.top_fraction));
      corr.push_back(cohort.correlation());
    }
    final_pct.push_back(sparse.final_fraction * 100.0);
    touched_total += nt;
    credited_total += static_cast<std::size_t>(
        std::count_if(amounts.begin(), amounts.end(),
                      [](ledger::MicroAlgos a) { return a != 0; }));
  }

  std::string replay_error = op0.cause;
  for (const auto& [key, replay] :
       {std::pair{"gini", &gini}, std::pair{"top_share", &top_share},
        std::pair{"defector_corr", &corr},
        std::pair{"final_pct", &final_pct}}) {
    if (replay_error.empty())
      replay_error = compare_series(key, *replay, op0.series, 1.0);
  }
  records.check("longhorizon.replay_matches_run_panel", replay_error.empty(),
                replay_error);
  const bool height_ok = network->chain().height() == sizes.rounds + 1;
  records.check("longhorizon.chain_height_equals_rounds", height_ok,
                height_ok ? "" : "chain height " +
                                     std::to_string(network->chain().height()));

  const std::vector<double> round_ms = tracer.durations_ms("sim.sparse_round");
  const double rounds = static_cast<double>(sizes.rounds);
  double sparse_ms = 0.0;
  for (const double ms : round_ms) sparse_ms += ms;
  const auto per_round_us = [&](const char* name) {
    std::vector<double> us = tracer.durations_ms(name);
    for (double& x : us) x *= 1000.0;
    return median(us);
  };
  // Steady state: past the first tenth of the run, once every buffer has
  // reached its high-water mark.
  const std::vector<double> steady(
      allocs.begin() + static_cast<std::ptrdiff_t>(allocs.size() / 10),
      allocs.end());
  records.metric("sim.network_build.ms",
                 tracer.durations_ms("sim.network_build").front(), "ms");
  records.metric("sim.sparse_ctx_init.ms",
                 tracer.durations_ms("sim.sparse_ctx_init").front(), "ms");
  records.metric("sim.sparse_round.ms_p50", quantile(round_ms, 0.5), "ms");
  records.metric("sim.sparse_round.ms_p99", quantile(round_ms, 0.99), "ms");
  records.metric("sim.sparse_round.share_of_run",
                 sparse_ms / 1000.0 / op0.wall_s, "ratio");
  records.metric("econ.distribute_touched.us",
                 per_round_us("econ.distribute_touched"), "us");
  records.metric("ledger.credit.us", per_round_us("ledger.credit"), "us");
  records.metric("sim.refresh_node.us", per_round_us("sim.refresh_node"),
                 "us");
  records.metric("util.concentration.us", per_round_us("util.concentration"),
                 "us");
  records.metric("sim.sparse_round.allocs_steady", median(steady), "count");
  records.metric("sim.sparse_workspace_bytes",
                 static_cast<double>(scratch.capacity_bytes()), "bytes");
  records.metric("sim.rss_per_node_bytes",
                 (rss_after - rss_before) / static_cast<double>(n), "bytes");
  records.metric("sim.touched_per_round",
                 static_cast<double>(touched_total) / rounds, "count");
  records.metric("econ.credited_per_round",
                 static_cast<double>(credited_total) / rounds, "count");
  records.metric("econ.credited_ratio",
                 touched_total == 0
                     ? 0.0
                     : static_cast<double>(credited_total) /
                           static_cast<double>(touched_total),
                 "ratio");
  tracer.append_to(spans_path);
  print_self_times("longhorizon_sparse replay", tracer);
}

// ----------------------------------------------------- fig6_orchestrated

void trace_fig6_layers(const Options& options, Records& records,
                       const std::string& spans_path) {
  const Sizes sizes = sizes_for("fig6_orchestrated", options.smoke);
  Options layer_options = options;
  layer_options.out_dir = options.out_dir + "/layers";
  Tracer tracer(3);

  // One traced job: coordinator spans here, one span file per worker.
  const JobRun job = run_fig6_job(layer_options, 0, &tracer);
  std::vector<double> window_ms;
  for (const auto& entry :
       std::filesystem::directory_iterator(job.spool_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("spans-w", 0) != 0) continue;
    for (const double ms : span_file_durations_ms(entry.path().string(),
                                                  "orch.worker.run_window"))
      window_ms.push_back(ms);
  }
  double busy_ms = 0.0;
  for (const double ms : window_ms) busy_ms += ms;
  const auto windows = static_cast<double>(job.stats.windows);
  records.check("fig6.every_window_traced",
                window_ms.size() >= job.stats.windows,
                std::to_string(window_ms.size()) + " window spans for " +
                    std::to_string(job.stats.windows) + " windows");
  records.metric("orch.worker.window_ms_p50", quantile(window_ms, 0.5), "ms");
  records.metric("orch.worker.window_ms_p95", quantile(window_ms, 0.95), "ms");
  records.metric("orch.worker.busy_ratio",
                 busy_ms / (static_cast<double>(sizes.workers) * job.wall_s *
                            1000.0),
                 "ratio");
  records.metric("orch.fold.ms", median(tracer.durations_ms("orch.fold")),
                 "ms");
  records.metric("orch.spawn.ms", median(tracer.durations_ms("orch.spawn")),
                 "ms");
  records.metric("orch.spool_bytes_per_window",
                 static_cast<double>(job.spool_bytes) / windows, "bytes");
  records.metric("orch.windows", windows, "count");
  records.metric("orch.retries", static_cast<double>(job.stats.retries),
                 "count");
  records.metric("orch.worker_deaths",
                 static_cast<double>(job.stats.worker_deaths), "count");
  records.metric("orch.store_hits", static_cast<double>(job.stats.store_hits),
                 "count");

  // One window replayed in-process: compute, both codecs, the store.
  const bench::PanelDriver<sim::RewardPartial> driver =
      seeded_fig6_panels(options.seed, sizes);
  std::vector<sim::RewardPartial> partials;
  {
    const Scope span(&tracer, "replay.fig6_window");
    for (std::size_t i = 0; i < driver.panel_count; ++i) {
      const Scope call(&tracer, "sim.reward_partial");
      partials.push_back(
          driver.run_panel(i, sim::RunShard{0, sizes.window}));
    }
  }
  const json::Value doc = bench::partial_document(
      driver.header, 0, sizes.window, sizes.window, partials,
      driver.panel_meta);
  const std::string reference = doc.dump();
  constexpr int kReps = 15;
  std::string codec_error;
  for (const auto format :
       {sim::PartialFormat::Binary, sim::PartialFormat::Json}) {
    const bool bin = format == sim::PartialFormat::Binary;
    const sim::PartialCodec& codec = sim::partial_codec(format);
    std::string bytes;
    for (int rep = 0; rep < kReps; ++rep) {
      const Scope span(&tracer, bin ? "codec.encode.bin" : "codec.encode.json");
      bytes = codec.encode(doc);
    }
    for (int rep = 0; rep < kReps; ++rep) {
      json::Value decoded;
      {
        const Scope span(&tracer,
                         bin ? "codec.decode.bin" : "codec.decode.json");
        decoded = sim::decode_partial_document(bytes, "replayed window");
      }
      if (decoded.dump() != reference && codec_error.empty())
        codec_error = std::string(sim::to_string(format)) +
                      " decode(encode(doc)) differs from doc";
    }
    records.metric(bin ? "codec.bytes.bin" : "codec.bytes.json",
                   static_cast<double>(bytes.size()), "bytes");
  }
  records.check("fig6.codec_round_trip", codec_error.empty(), codec_error);
  records.metric("codec.encode_ms.bin",
                 median(tracer.durations_ms("codec.encode.bin")), "ms");
  records.metric("codec.encode_ms.json",
                 median(tracer.durations_ms("codec.encode.json")), "ms");
  records.metric("codec.decode_ms.bin",
                 median(tracer.durations_ms("codec.decode.bin")), "ms");
  records.metric("codec.decode_ms.json",
                 median(tracer.durations_ms("codec.decode.json")), "ms");

  const std::string store_dir = layer_options.out_dir + "/store";
  std::filesystem::remove_all(store_dir);
  const std::string payload =
      sim::partial_codec(sim::PartialFormat::Binary).encode(doc);
  std::string store_error;
  const auto key_at = [&](std::size_t k) {
    return bench::store_key_of(driver.header, k * sizes.window,
                               (k + 1) * sizes.window);
  };
  for (std::size_t k = 0; k < kReps; ++k) {
    const Scope span(&tracer, "store.insert");
    sim::ResultStore(store_dir).insert(key_at(k), payload);
  }
  for (std::size_t k = 0; k < kReps; ++k) {
    std::optional<std::string> hit;
    {
      const Scope span(&tracer, "store.lookup_hit");
      hit = sim::ResultStore(store_dir).lookup(key_at(k));
    }
    if ((!hit || *hit != payload) && store_error.empty())
      store_error = "a published window did not come back byte-identical";
  }
  for (std::size_t k = kReps; k < 2 * kReps; ++k) {
    std::optional<std::string> miss;
    {
      const Scope span(&tracer, "store.lookup_miss");
      miss = sim::ResultStore(store_dir).lookup(key_at(k));
    }
    if (miss && store_error.empty())
      store_error = "an absent window was served";
  }
  records.check("fig6.store_round_trip", store_error.empty(), store_error);
  const std::vector<double> reward_ms =
      tracer.durations_ms("sim.reward_partial");
  double window_compute_ms = 0.0;
  for (const double ms : reward_ms) window_compute_ms += ms;
  records.metric("sim.reward_partial.ms", window_compute_ms, "ms");
  records.metric("store.insert_ms", median(tracer.durations_ms("store.insert")),
                 "ms");
  records.metric("store.lookup_hit_ms",
                 median(tracer.durations_ms("store.lookup_hit")), "ms");
  records.metric("store.lookup_miss_ms",
                 median(tracer.durations_ms("store.lookup_miss")), "ms");
  tracer.append_to(spans_path);
  print_self_times("fig6_orchestrated job + window replay", tracer);
}

}  // namespace rsbench
