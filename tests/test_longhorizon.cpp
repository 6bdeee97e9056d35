#include "sim/longhorizon.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "econ/cost_model.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/role_based.hpp"
#include "econ/role_snapshot.hpp"
#include "econ/sparse_payout.hpp"
#include "util/rng.hpp"

namespace roleshare::sim {
namespace {

LongHorizonConfig tiny_config() {
  LongHorizonConfig config;
  config.node_count = 200;
  config.seed = 17;
  config.runs = 3;
  config.rounds_per_run = 6;
  config.defection_rate = 0.10;
  return config;
}

// distribute_touched's digit-for-digit contract against the paper scheme:
// over a full-population snapshot and the split the scheme chose, the
// Leader/Committee amounts must match RoleBasedScheme::distribute exactly,
// and they must be invariant to restricting the touched set to just the
// elected nodes.
TEST(SparsePayout, MatchesRoleBasedSchemeForElectedRoles) {
  util::Rng rng(31);
  const std::size_t n = 400;
  std::vector<consensus::Role> roles(n, consensus::Role::Other);
  std::vector<std::int64_t> stakes(n);
  for (std::size_t v = 0; v < n; ++v) {
    stakes[v] = rng.uniform_int(1, 80);
    const double p = rng.uniform01();
    if (p < 0.02) {
      roles[v] = consensus::Role::Leader;
    } else if (p < 0.15) {
      roles[v] = consensus::Role::Committee;
    }
  }
  const econ::RoleSnapshot snapshot(roles, stakes);
  const ledger::MicroAlgos budget = 26'000'000;

  econ::RoleBasedScheme scheme(econ::CostModel{});
  ASSERT_GT(scheme.required_budget(1, snapshot), 0);
  const econ::RewardSplit split = scheme.last_split();
  const econ::Payouts dense = scheme.distribute(1, snapshot, budget);

  // Full-population touched set.
  std::vector<ledger::MicroAlgos> amounts(n, 0);
  const auto totals = econ::distribute_touched(
      split, budget, roles, stakes, snapshot.total_stake(), amounts);
  EXPECT_EQ(totals.leader_stake, snapshot.stake_of(consensus::Role::Leader));
  EXPECT_EQ(totals.committee_stake,
            snapshot.stake_of(consensus::Role::Committee));
  EXPECT_EQ(totals.other_stake, snapshot.stake_of(consensus::Role::Other));
  ledger::MicroAlgos paid = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (roles[v] == consensus::Role::Other) {
      EXPECT_EQ(amounts[v], 0) << v;  // γ pot reported, not paid
    } else {
      EXPECT_EQ(amounts[v], dense.amounts[v]) << v;
      paid += amounts[v];
    }
  }
  EXPECT_EQ(totals.paid, paid);
  EXPECT_LE(totals.paid + totals.others_pot, budget);

  // Elected-only touched set (the sparse round's actual shape) pays the
  // same amounts given the same online_stake.
  std::vector<consensus::Role> elected_roles;
  std::vector<std::int64_t> elected_stakes;
  std::vector<std::size_t> elected_ids;
  for (std::size_t v = 0; v < n; ++v) {
    if (roles[v] == consensus::Role::Other) continue;
    elected_roles.push_back(roles[v]);
    elected_stakes.push_back(stakes[v]);
    elected_ids.push_back(v);
  }
  std::vector<ledger::MicroAlgos> elected_amounts(elected_roles.size(), 0);
  const auto elected_totals = econ::distribute_touched(
      split, budget, elected_roles, elected_stakes, snapshot.total_stake(),
      elected_amounts);
  EXPECT_EQ(elected_totals.paid, totals.paid);
  EXPECT_EQ(elected_totals.other_stake, totals.other_stake);
  for (std::size_t i = 0; i < elected_ids.size(); ++i)
    EXPECT_EQ(elected_amounts[i], dense.amounts[elected_ids[i]]);
}

TEST(SparsePayout, GuardsAndDegenerateBudgets) {
  const econ::RewardSplit split(0.30, 0.30);
  std::vector<consensus::Role> roles{consensus::Role::Leader};
  std::vector<std::int64_t> stakes{10};
  std::vector<ledger::MicroAlgos> amounts(1, 0);
  // Zero budget pays nothing.
  const auto zero =
      econ::distribute_touched(split, 0, roles, stakes, 10, amounts);
  EXPECT_EQ(zero.paid, 0);
  // Touched stakes exceeding the online stake is a caller bug.
  EXPECT_THROW(econ::distribute_touched(split, 100, roles, stakes, 5, amounts),
               std::invalid_argument);
  // Mismatched spans are rejected.
  std::vector<ledger::MicroAlgos> wrong(2, 0);
  EXPECT_THROW(econ::distribute_touched(split, 100, roles, stakes, 10, wrong),
               std::invalid_argument);
}

// The payout step both the long-horizon run and round_latency compound
// through: round 0 pays round 1's budget (rounds are 1-based), each
// credited balance grows by exactly distribute_touched's µAlgos, and a
// zero amount is neither credited nor reported.
TEST(LongHorizon, CreditRolePayoutsCreditsEveryNonZeroAmount) {
  using consensus::Role;
  ledger::AccountTable accounts;
  const std::vector<std::int64_t> balances_algos{40, 25, 60, 10, 0, 33};
  for (std::size_t v = 0; v < balances_algos.size(); ++v)
    accounts.add_account(ledger::algos(balances_algos[v]));
  // Node 4 is a zero-stake leader and node 5 an Other: both earn 0.
  const std::vector<SparseNodeRole> touched{
      {0, Role::Leader, Role::Leader, 40},
      {1, Role::Committee, Role::Committee, 25},
      {2, Role::Committee, Role::Committee, 60},
      {3, Role::Leader, Role::Leader, 10},
      {4, Role::Leader, Role::Leader, 0},
      {5, Role::Other, Role::Other, 33}};
  const std::int64_t online_stake = 40 + 25 + 60 + 10 + 0 + 33 + 500;
  const econ::RewardSplit split(0.30, 0.30);

  std::vector<Role> roles;
  std::vector<std::int64_t> stakes;
  for (const SparseNodeRole& t : touched) {
    roles.push_back(t.role_observed);
    stakes.push_back(t.reward_stake);
  }
  std::vector<ledger::MicroAlgos> expected(touched.size(), 0);
  const econ::SparsePayoutTotals expected_totals = econ::distribute_touched(
      split, econ::FoundationSchedule::reward_for_round(1), roles, stakes,
      online_stake, expected);
  ASSERT_GT(expected[0], 0);
  ASSERT_EQ(expected[4], 0);
  ASSERT_EQ(expected[5], 0);

  std::vector<ledger::MicroAlgos> balances_before;
  for (std::size_t v = 0; v < touched.size(); ++v)
    balances_before.push_back(
        accounts.balance(static_cast<ledger::NodeId>(v)));
  std::vector<ledger::NodeId> reported;
  std::vector<Role> scratch_roles;
  std::vector<std::int64_t> scratch_stakes;
  std::vector<ledger::MicroAlgos> amounts;
  const econ::SparsePayoutTotals totals = credit_role_payouts(
      accounts, split, 0, touched, online_stake, scratch_roles,
      scratch_stakes, amounts,
      [&](ledger::NodeId v, std::int64_t before, std::int64_t after) {
        EXPECT_EQ(before, balances_before[v] / ledger::kMicroPerAlgo);
        EXPECT_EQ(after, accounts.stake(v));
        reported.push_back(v);
      });

  EXPECT_EQ(totals.paid, expected_totals.paid);
  EXPECT_EQ(totals.others_pot, expected_totals.others_pot);
  EXPECT_EQ(amounts, expected);
  std::vector<ledger::NodeId> credited;
  for (std::size_t v = 0; v < touched.size(); ++v) {
    const auto id = static_cast<ledger::NodeId>(v);
    EXPECT_EQ(accounts.balance(id), balances_before[v] + expected[v]) << v;
    if (expected[v] != 0) credited.push_back(id);
  }
  EXPECT_EQ(reported, credited);
}

TEST(LongHorizon, SmokeRunProducesCoherentSeries) {
  const LongHorizonConfig config = tiny_config();
  const LongHorizonResult result = run_longhorizon_partial(config).finalize();
  ASSERT_EQ(result.gini_per_round.size(), config.rounds_per_run);
  ASSERT_EQ(result.top_share_per_round.size(), config.rounds_per_run);
  ASSERT_EQ(result.defector_corr_per_round.size(), config.rounds_per_run);
  ASSERT_EQ(result.final_pct_per_round.size(), config.rounds_per_run);
  for (std::size_t r = 0; r < config.rounds_per_run; ++r) {
    EXPECT_GE(result.gini_per_round[r], 0.0);
    EXPECT_LE(result.gini_per_round[r], 1.0);
    EXPECT_GT(result.top_share_per_round[r], 0.0);
    EXPECT_LE(result.top_share_per_round[r], 1.0);
    EXPECT_GE(result.defector_corr_per_round[r], -1.0);
    EXPECT_LE(result.defector_corr_per_round[r], 1.0);
    EXPECT_GE(result.final_pct_per_round[r], 0.0);
    EXPECT_LE(result.final_pct_per_round[r], 100.0);
  }
  EXPECT_GE(result.mean_end_gini, 0.0);
  EXPECT_LE(result.mean_end_gini, 1.0);
  EXPECT_GT(result.mean_paid_algos, 0.0);
  EXPECT_GT(result.accumulator_bytes, 0u);
}

TEST(LongHorizon, DeterministicInSeedAndThreads) {
  LongHorizonConfig config = tiny_config();
  const LongHorizonResult a = run_longhorizon_partial(config).finalize();
  config.threads = 3;
  const LongHorizonResult b = run_longhorizon_partial(config).finalize();
  EXPECT_EQ(a.gini_per_round, b.gini_per_round);
  EXPECT_EQ(a.top_share_per_round, b.top_share_per_round);
  EXPECT_EQ(a.defector_corr_per_round, b.defector_corr_per_round);
  EXPECT_EQ(a.final_pct_per_round, b.final_pct_per_round);
  EXPECT_EQ(a.mean_end_gini, b.mean_end_gini);
  EXPECT_EQ(a.mean_paid_algos, b.mean_paid_algos);

  LongHorizonConfig reseeded = tiny_config();
  reseeded.seed = 18;
  const LongHorizonResult c = run_longhorizon_partial(reseeded).finalize();
  EXPECT_NE(a.gini_per_round, c.gini_per_round);
}

TEST(LongHorizon, PartialJsonRoundTrips) {
  const LongHorizonConfig config = tiny_config();
  const LongHorizonPartial partial = run_longhorizon_partial(config);
  EXPECT_EQ(partial.envelope().kind, "longhorizon");
  EXPECT_TRUE(partial.complete());
  const LongHorizonPartial restored =
      LongHorizonPartial::from_json(util::json::parse(partial.to_json().dump()));
  EXPECT_EQ(restored.to_json().dump(), partial.to_json().dump());
}

// The acceptance-criterion property in miniature: contiguous shards merged
// in window order are bit-identical to the single-process partial.
TEST(LongHorizon, ShardedMergeMatchesSingleProcess) {
  const LongHorizonConfig config = tiny_config();
  const LongHorizonPartial whole = run_longhorizon_partial(config);

  auto shard = [&](std::size_t begin, std::size_t end) {
    LongHorizonConfig c = config;
    c.shard = RunShard{begin, end};
    return run_longhorizon_partial(c);
  };
  LongHorizonPartial merged = shard(0, 1);
  merged.merge(shard(1, 2));
  merged.merge(shard(2, 3));
  EXPECT_EQ(merged.to_json().dump(), whole.to_json().dump());

  const LongHorizonResult a = whole.finalize();
  const LongHorizonResult b = merged.finalize();
  EXPECT_EQ(a.gini_per_round, b.gini_per_round);
  EXPECT_EQ(a.mean_end_gini, b.mean_end_gini);
  EXPECT_EQ(a.mean_paid_algos, b.mean_paid_algos);
}

TEST(LongHorizon, CompoundingDriftsTheStakeDistribution) {
  // With rewards flowing back into stake, the end-of-run concentration
  // must differ from the round-1 concentration — the series is alive.
  LongHorizonConfig config = tiny_config();
  config.runs = 1;
  config.rounds_per_run = 40;
  const LongHorizonResult result = run_longhorizon_partial(config).finalize();
  EXPECT_NE(result.gini_per_round.front(), result.gini_per_round.back());
}

TEST(LongHorizon, RejectsInvalidConfig) {
  LongHorizonConfig bad = tiny_config();
  bad.node_count = 2;
  EXPECT_THROW(run_longhorizon_partial(bad), std::invalid_argument);
  LongHorizonConfig bad_top = tiny_config();
  bad_top.top_fraction = 0.0;
  EXPECT_THROW(run_longhorizon_partial(bad_top), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::sim
