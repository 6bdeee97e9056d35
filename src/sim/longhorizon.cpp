#include "sim/longhorizon.hpp"

#include "sim/round_engine.hpp"
#include "util/require.hpp"
#include "util/streaming_stats.hpp"

namespace roleshare::sim {

namespace {

/// One run's contribution: the four per-round series plus trailing
/// scalars, in round order so the reduction replays a serial execution.
struct LongHorizonRun {
  std::vector<double> gini;
  std::vector<double> top_share;
  std::vector<double> corr;
  std::vector<double> final_pct;
  double end_gini = 0.0;
  double end_top_share = 0.0;
  double end_corr = 0.0;
  double paid_algos = 0.0;
};

LongHorizonRun execute_run(const LongHorizonConfig& config,
                           std::uint64_t run_seed) {
  NetworkConfig nc;
  nc.node_count = config.node_count;
  nc.seed = run_seed;
  nc.fan_out = config.fan_out;
  nc.stake_lo = config.stake_lo;
  nc.stake_hi = config.stake_hi;
  nc.defection_rate = config.defection_rate;
  nc.faulty_rate = config.faulty_rate;
  nc.delay_lo_ms = config.delay_lo_ms;
  nc.delay_hi_ms = config.delay_hi_ms;
  Network net(nc);

  consensus::ConsensusParams params =
      consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
  params.committee_model = consensus::CommitteeModel::Sampled;
  RoundEngine engine(net, params);

  // The O(N) setup, paid once per run: sparse context, defector cohort,
  // and the streaming concentration sketches seeded from the initial
  // stakes. Every per-round mutation from here on is O(log N) or O(1).
  SparseRoundContext ctx;
  ctx.init_from(net);
  SparseRoundWorkspace scratch;
  SparseRoundResult sparse;

  const std::size_t n = net.node_count();
  std::vector<std::uint8_t> defector(n, 0);
  util::StakeConcentration concentration;
  util::CohortWealthCorrelation cohort;
  const std::vector<game::Strategy>& strategies = net.strategies();
  for (std::size_t v = 0; v < n; ++v) {
    const std::int64_t stake =
        net.accounts().stake(static_cast<ledger::NodeId>(v));
    defector[v] = strategies[v] == game::Strategy::Defect ? 1 : 0;
    concentration.add(stake);
    cohort.add(stake, defector[v] != 0);
  }

  const econ::RewardSplit split(config.alpha, config.beta);
  std::vector<consensus::Role> touched_roles;
  std::vector<std::int64_t> touched_stakes;
  std::vector<ledger::MicroAlgos> touched_amounts;
  // Compounding: each credit folds its stake delta into the sparse
  // context and both sketches — O(log N) per payout.
  const auto on_credit = [&](ledger::NodeId v, std::int64_t before,
                             std::int64_t after) {
    if (after == before) return;  // sub-Algo dust: stake unchanged
    concentration.update(before, after);
    cohort.update(before, after, defector[v] != 0);
    ctx.refresh_node(net, v);
  };

  LongHorizonRun run;
  run.gini.reserve(config.rounds_per_run);
  run.top_share.reserve(config.rounds_per_run);
  run.corr.reserve(config.rounds_per_run);
  run.final_pct.reserve(config.rounds_per_run);

  ledger::MicroAlgos paid_total = 0;
  for (std::size_t r = 0; r < config.rounds_per_run; ++r) {
    engine.run_round_sparse_into(sparse, ctx, scratch);
    paid_total += credit_role_payouts(net.accounts(), split, sparse.round,
                                      sparse.touched, sparse.online_stake,
                                      touched_roles, touched_stakes,
                                      touched_amounts, on_credit)
                      .paid;

    run.gini.push_back(concentration.gini());
    run.top_share.push_back(concentration.top_share(config.top_fraction));
    run.corr.push_back(cohort.correlation());
    run.final_pct.push_back(sparse.final_fraction * 100.0);
  }
  run.end_gini = run.gini.back();
  run.end_top_share = run.top_share.back();
  run.end_corr = run.corr.back();
  run.paid_algos = ledger::to_algos(paid_total);
  return run;
}

// LongHorizonPayload's entries, in document order.
enum Series : std::size_t { kGini, kTopShare, kCorr, kFinalPct };
enum Bank : std::size_t { kEndGini, kEndTopShare, kEndCorr, kPaid };

const ReductionLayout kLayout{{"gini", "top_share", "corr", "final_pct"},
                              {"end_gini", "end_top_share", "end_corr",
                               "paid"}};

double mean_or_zero(const ScalarBank& bank) {
  return bank.count() > 0 ? bank.mean() : 0.0;
}

}  // namespace

LongHorizonPayload::LongHorizonPayload(std::size_t rounds, AggBackend backend)
    : state_(kLayout, backend, rounds) {}

void LongHorizonPayload::record_round(std::size_t round_index, double gini,
                                      double top_share, double defector_corr,
                                      double final_pct) {
  state_.accumulator(kGini).record(round_index, gini);
  state_.accumulator(kTopShare).record(round_index, top_share);
  state_.accumulator(kCorr).record(round_index, defector_corr);
  state_.accumulator(kFinalPct).record(round_index, final_pct);
}

void LongHorizonPayload::record_run(double end_gini, double end_top_share,
                                    double end_defector_corr,
                                    double paid_algos) {
  state_.bank(kEndGini).record(end_gini);
  state_.bank(kEndTopShare).record(end_top_share);
  state_.bank(kEndCorr).record(end_defector_corr);
  state_.bank(kPaid).record(paid_algos);
}

LongHorizonResult LongHorizonPayload::finalize(
    const PartialEnvelope&) const {
  LongHorizonResult result;
  result.gini_per_round = state_.accumulator(kGini).mean_series();
  result.top_share_per_round = state_.accumulator(kTopShare).mean_series();
  result.defector_corr_per_round = state_.accumulator(kCorr).mean_series();
  result.final_pct_per_round = state_.accumulator(kFinalPct).mean_series();
  result.mean_end_gini = mean_or_zero(state_.bank(kEndGini));
  result.mean_end_top_share = mean_or_zero(state_.bank(kEndTopShare));
  result.mean_end_defector_corr = mean_or_zero(state_.bank(kEndCorr));
  result.mean_paid_algos = mean_or_zero(state_.bank(kPaid));
  result.accumulator_bytes = accumulator_bytes();
  return result;
}

LongHorizonPayload LongHorizonPayload::from_json(
    const util::json::Value& value, const PartialEnvelope& envelope) {
  return LongHorizonPayload(
      ReductionState::from_json(kLayout, value, envelope));
}

util::json::Value longhorizon_spec_echo(const LongHorizonConfig& config) {
  using util::json::Value;
  Value v = Value::object();
  v.set("experiment", std::string(LongHorizonPayload::kKind));
  v.set("node_count", config.node_count);
  v.set("seed", config.seed);
  v.set("stake_lo", config.stake_lo);
  v.set("stake_hi", config.stake_hi);
  v.set("defection_rate", config.defection_rate);
  v.set("faulty_rate", config.faulty_rate);
  v.set("fan_out", config.fan_out);
  v.set("delay_lo_ms", config.delay_lo_ms);
  v.set("delay_hi_ms", config.delay_hi_ms);
  v.set("runs", config.runs);
  v.set("rounds_per_run", config.rounds_per_run);
  v.set("alpha", config.alpha);
  v.set("beta", config.beta);
  v.set("top_fraction", config.top_fraction);
  append_agg_echo(v, config.agg);
  return v;
}

LongHorizonPartial run_longhorizon_partial(const LongHorizonConfig& config) {
  RS_REQUIRE(config.node_count > 2, "population too small");
  RS_REQUIRE(config.top_fraction > 0.0 && config.top_fraction <= 1.0,
             "top_fraction in (0, 1]");
  return run_partial<LongHorizonPayload>(
      {.runs = config.runs,
       .rounds = config.rounds_per_run,
       .root_seed = config.seed,
       .threads = config.threads,
       .inner_threads = 1,
       .shard = config.shard},
      config.agg, longhorizon_spec_echo(config),
      [&config](std::size_t run_index, util::Rng&, const RunContext&) {
        return execute_run(config, seed_for_run(config.seed, run_index));
      },
      [&config](LongHorizonPayload& payload, const LongHorizonRun& run) {
        for (std::size_t r = 0; r < config.rounds_per_run; ++r)
          payload.record_round(r, run.gini[r], run.top_share[r], run.corr[r],
                               run.final_pct[r]);
        payload.record_run(run.end_gini, run.end_top_share, run.end_corr,
                           run.paid_algos);
      });
}

}  // namespace roleshare::sim
