// Population-scale long-horizon economy runs (DESIGN.md §10).
//
// The question the paper's figures cannot ask: what does role-based
// reward sharing do to the *wealth distribution* when rewards compound
// into stake over thousands of rounds at populations of 10^5..10^6?
// Richer nodes win more seats, seats earn rewards, rewards buy stake —
// a feedback loop whose concentration effects only show up at horizons
// far beyond the dense engine's reach.
//
// One run: a Network under CommitteeModel::Sampled, driven round by round
// through the sparse O(committee · log N) path. Each round's role payouts
// (econ/sparse_payout.hpp, fixed split, Foundation Table-III budget) are
// credited back into the winners' accounts; the SparseRoundContext and
// the streaming concentration sketches absorb each credit in O(log N) /
// O(1), so a round's total cost never touches the population size.
//
// Per-round series (streaming, O(1) per update — util/streaming_stats):
//   gini          quantized Gini of the stake distribution
//   top_share     stake share of the richest `top_fraction` of holders
//   defector_corr point-biserial correlation between the static defector
//                 cohort and wealth (negative = defectors falling behind)
//   final_pct     consensus health, same metric as the Fig-3 series
//
// Sharded execution rides the shared ExperimentPartial machinery exactly
// like the reward experiment: run_longhorizon_partial executes the
// config's shard window into a mergeable LongHorizonPartial, and N
// exact-backend shards merged in window order reproduce the
// single-process result bit for bit (bench/fig_longhorizon.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "consensus/params.hpp"
#include "econ/bi_bounds.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/sparse_payout.hpp"
#include "ledger/account_table.hpp"
#include "sim/aggregators.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/network.hpp"
#include "sim/partial.hpp"
#include "sim/sampled_round.hpp"

namespace roleshare::sim {

struct LongHorizonConfig {
  /// Population and network shape (stakes U(stake_lo, stake_hi),
  /// defection_rate scripted defectors, faulty_rate offline) — the
  /// NetworkConfig fields that matter here, surfaced flat so the spec
  /// echo stays explicit.
  std::size_t node_count = 100'000;
  std::uint64_t seed = 21;
  std::int64_t stake_lo = 1;
  std::int64_t stake_hi = 50;
  double defection_rate = 0.10;
  double faulty_rate = 0.0;
  std::size_t fan_out = 5;
  double delay_lo_ms = 20.0;
  double delay_hi_ms = 120.0;

  std::size_t runs = 4;
  std::size_t rounds_per_run = 2000;
  /// Worker threads for the run fan-out. There is no inner knob: the
  /// sparse round runs no per-node loop, so an inner pool would only idle.
  std::size_t threads = 1;

  /// Fixed reward split (α leaders, β committee; γ = 1 − α − β to Others,
  /// reported but not individually compounded — sparse_payout.hpp).
  double alpha = 0.30;
  double beta = 0.30;

  /// The "top-k" of the concentration series: richest fraction of holders.
  double top_fraction = 0.01;

  AggBackend agg = AggBackend::Exact;
  RunShard shard{};
};

struct LongHorizonResult {
  /// Per-round means across runs (length rounds_per_run).
  std::vector<double> gini_per_round;
  std::vector<double> top_share_per_round;
  std::vector<double> defector_corr_per_round;
  std::vector<double> final_pct_per_round;
  /// Run-end scalars, averaged across runs.
  double mean_end_gini = 0.0;
  double mean_end_top_share = 0.0;
  double mean_end_defector_corr = 0.0;
  /// Mean per-run total credited reward, Algos.
  double mean_paid_algos = 0.0;
  std::size_t accumulator_bytes = 0;
};

/// The experiment-specific half of a LongHorizonPartial: four per-round
/// series accumulators plus the run-end scalar banks, fed in record order
/// so exact-backend merges replay a serial execution exactly.
class LongHorizonPayload {
 public:
  static constexpr std::string_view kKind = "longhorizon";

  LongHorizonPayload(std::size_t rounds, AggBackend backend);

  void record_round(std::size_t round_index, double gini, double top_share,
                    double defector_corr, double final_pct);
  void record_run(double end_gini, double end_top_share,
                  double end_defector_corr, double paid_algos);

  void merge(const LongHorizonPayload& next) { state_.merge(next.state_); }

  LongHorizonResult finalize(const PartialEnvelope& envelope) const;

  std::size_t accumulator_bytes() const { return state_.memory_bytes(); }

  util::json::Value to_json() const { return state_.to_json(); }
  static LongHorizonPayload from_json(const util::json::Value& value,
                                      const PartialEnvelope& envelope);

 private:
  explicit LongHorizonPayload(ReductionState state)
      : state_(std::move(state)) {}

  // gini, top_share, corr, final_pct | end_gini, end_top_share, end_corr,
  // paid
  ReductionState state_;
};

using LongHorizonPartial = ExperimentPartial<LongHorizonPayload>;

/// Canonical echo of every result-affecting config field — the spec-hash
/// input shared by all partials of one long-horizon experiment.
util::json::Value longhorizon_spec_echo(const LongHorizonConfig& config);

/// Executes config.shard's run window through the sparse round path and
/// reduces it into a mergeable partial; finalize() of a whole-range
/// partial is the single-process experiment. Deterministic in
/// config.seed, independent of config.threads.
LongHorizonPartial run_longhorizon_partial(const LongHorizonConfig& config);

/// One round's payout step: the Foundation Table-III budget of round
/// max(round, 1) (the chain's genesis block sits at height 0), split by
/// econ::distribute_touched over the touched nodes' observed roles and
/// reward stakes, and every non-zero amount credited to its account.
/// `roles`, `stakes` and `amounts` are caller-owned scratch, refilled
/// each call. Reports each credit as on_credit(v, stake_before,
/// stake_after), in whole Algos, and returns the round's totals.
template <typename OnCredit>
econ::SparsePayoutTotals credit_role_payouts(
    ledger::AccountTable& accounts, const econ::RewardSplit& split,
    ledger::Round round, std::span<const SparseNodeRole> touched,
    std::int64_t online_stake, std::vector<consensus::Role>& roles,
    std::vector<std::int64_t>& stakes,
    std::vector<ledger::MicroAlgos>& amounts, OnCredit&& on_credit) {
  roles.clear();
  stakes.clear();
  for (const SparseNodeRole& t : touched) {
    roles.push_back(t.role_observed);
    stakes.push_back(t.reward_stake);
  }
  amounts.assign(touched.size(), 0);
  const econ::SparsePayoutTotals totals = econ::distribute_touched(
      split,
      econ::FoundationSchedule::reward_for_round(
          std::max<ledger::Round>(round, 1)),
      roles, stakes, online_stake, amounts);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (amounts[i] == 0) continue;
    const ledger::NodeId v = touched[i].node;
    const std::int64_t before = accounts.stake(v);
    accounts.credit(v, amounts[i]);
    on_credit(v, before, accounts.stake(v));
  }
  return totals;
}

}  // namespace roleshare::sim
