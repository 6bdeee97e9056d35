// Property suite: reward-conservation invariants for every scheme and
// exact pool accounting, over randomized populations and budgets
// (seeding contract in DESIGN.md §8).
//
// The paper's economic layer promises integer µAlgo conservation: a
// scheme never disburses more than its budget (floor rounding leaves
// dust in the pool, never mints), pays nothing to zero-stake nodes, and
// the Foundation pool's ledger identity emitted == balance + disbursed
// holds after any operation sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "econ/cost_model.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/reward_pool.hpp"
#include "econ/role_based.hpp"
#include "econ/role_snapshot.hpp"
#include "econ/stake_proportional.hpp"
#include "gen/domain_gen.hpp"
#include "util/proptest.hpp"

namespace {

using roleshare::econ::CostModel;
using roleshare::econ::FoundationPool;
using roleshare::econ::Payouts;
using roleshare::econ::RewardSplit;
using roleshare::econ::RoleBasedScheme;
using roleshare::econ::RoleSnapshot;
using roleshare::econ::StakeProportionalScheme;
using roleshare::ledger::MicroAlgos;
using roleshare::util::proptest::Verdict;
namespace pgen = roleshare::util::proptest::gen;

std::string describe_snapshot(const RoleSnapshot& snap) {
  std::string out = "snapshot{";
  for (std::size_t v = 0; v < snap.node_count(); ++v) {
    if (v > 0) out += ", ";
    const auto id = static_cast<roleshare::ledger::NodeId>(v);
    switch (snap.role(id)) {
      case roleshare::consensus::Role::Leader: out += "L:"; break;
      case roleshare::consensus::Role::Committee: out += "M:"; break;
      case roleshare::consensus::Role::Other: out += "K:"; break;
    }
    out += std::to_string(snap.stake(id));
  }
  return out + "}";
}

// The conservation contract every scheme must satisfy for any
// (snapshot, budget) pair, whether or not the budget is the one the
// scheme asked for. Each property names its scheme, so the verdicts
// need not.
template <typename Scheme>
Verdict conservation_holds(Scheme& scheme, const RoleSnapshot& snap,
                           MicroAlgos budget) {
  const MicroAlgos required =
      scheme.required_budget(/*round=*/1, snap);
  if (required < 0)
    return Verdict{false,
                   "negative required budget " + std::to_string(required)};
  const Payouts payouts = scheme.distribute(/*round=*/1, snap, budget);
  if (payouts.amounts.size() != snap.node_count())
    return Verdict{false, "payout vector has " +
                              std::to_string(payouts.amounts.size()) +
                              " entries for " +
                              std::to_string(snap.node_count()) + " nodes"};
  MicroAlgos sum = 0;
  for (std::size_t v = 0; v < payouts.amounts.size(); ++v) {
    const MicroAlgos a = payouts.amounts[v];
    if (a < 0)
      return Verdict{false, "negative payout " + std::to_string(a) +
                                " to node " + std::to_string(v)};
    if (snap.stake(static_cast<roleshare::ledger::NodeId>(v)) == 0 && a != 0)
      return Verdict{false, "zero-stake node " + std::to_string(v) +
                                " paid " + std::to_string(a)};
    sum += a;
  }
  if (sum != payouts.total)
    return Verdict{false, "total " + std::to_string(payouts.total) +
                              " != sum of amounts " + std::to_string(sum)};
  if (payouts.total > budget)
    return Verdict{false, "disbursed " + std::to_string(payouts.total) +
                              " from a budget of " + std::to_string(budget)};
  return Verdict{};
}

auto snapshot_and_budget() {
  return pgen::tuple_of(roleshare::testgen::role_snapshot(1, 24),
                        pgen::int_range(0, 2'000'000'000));
}

auto snapshot_budget_printer() {
  return [](const std::tuple<RoleSnapshot, std::int64_t>& t) {
    return describe_snapshot(std::get<0>(t)) +
           " budget=" + std::to_string(std::get<1>(t));
  };
}

}  // namespace

// ISSUE acceptance: reward conservation at >= 1000 randomized cases for
// every scheme. Each check draws an independent (population, budget).
PROP_TEST_WITH_PARAMS(PropRewards, StakeProportionalConservesBudget, 1000) {
  prop.check(
      snapshot_and_budget(),
      [](const std::tuple<RoleSnapshot, std::int64_t>& t) {
        StakeProportionalScheme scheme;
        return conservation_holds(scheme, std::get<0>(t), std::get<1>(t));
      },
      snapshot_budget_printer());
}

PROP_TEST_WITH_PARAMS(PropRewards, RoleBasedAdaptiveConservesBudget, 1000) {
  prop.check(
      snapshot_and_budget(),
      [](const std::tuple<RoleSnapshot, std::int64_t>& t) {
        RoleBasedScheme scheme(CostModel{});
        return conservation_holds(scheme, std::get<0>(t), std::get<1>(t));
      },
      snapshot_budget_printer());
}

PROP_TEST_WITH_PARAMS(PropRewards, RoleBasedFixedSplitConservesBudget, 1000) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::role_snapshot(1, 24),
                     pgen::int_range(0, 2'000'000'000),
                     pgen::real_range(0.01, 0.45),   // alpha
                     pgen::real_range(0.01, 0.45)),  // beta
      [](const std::tuple<RoleSnapshot, std::int64_t, double, double>& t) {
        const auto& [snap, budget, alpha, beta] = t;
        RoleBasedScheme scheme(CostModel{}, RewardSplit(alpha, beta));
        return conservation_holds(scheme, snap, budget);
      },
      [](const std::tuple<RoleSnapshot, std::int64_t, double, double>& t) {
        return describe_snapshot(std::get<0>(t)) +
               " budget=" + std::to_string(std::get<1>(t)) + " split=(" +
               std::to_string(std::get<2>(t)) + ", " +
               std::to_string(std::get<3>(t)) + ")";
      });
}

// Fig-7(c)'s U_w filter must not break conservation: filtered Others get
// nothing, everyone else still shares at most the budget.
PROP_TEST_WITH_PARAMS(PropRewards, MinStakeFilterStillConserves, 1000) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::role_snapshot(1, 24),
                     pgen::int_range(0, 2'000'000'000),
                     pgen::int_range(0, 5'000)),  // min_other_stake
      [](const std::tuple<RoleSnapshot, std::int64_t, std::int64_t>& t) {
        const auto& [snap, budget, threshold] = t;
        RoleBasedScheme scheme(CostModel{},
                               roleshare::econ::OptimizerConfig{}, threshold);
        Verdict v = conservation_holds(scheme, snap, budget);
        if (!v.ok) return v;
        const Payouts payouts = scheme.distribute(1, snap, budget);
        for (std::size_t i = 0; i < payouts.amounts.size(); ++i) {
          const auto id = static_cast<roleshare::ledger::NodeId>(i);
          if (snap.role(id) == roleshare::consensus::Role::Other &&
              snap.stake(id) < threshold && payouts.amounts[i] != 0)
            return Verdict{false,
                           "filtered node " + std::to_string(i) + " (stake " +
                               std::to_string(snap.stake(id)) +
                               " < threshold " + std::to_string(threshold) +
                               ") was paid " +
                               std::to_string(payouts.amounts[i])};
        }
        return Verdict{};
      });
}

// The Foundation pool ledger identity under arbitrary operation
// sequences: emitted never exceeds the ceiling, balance never goes
// negative, and emitted == balance + disbursed at every step.
PROP_TEST_WITH_PARAMS(PropRewards, FoundationPoolAccountingIdentity, 1000) {
  prop.check(
      pgen::tuple_of(
          pgen::int_range(0, 1'000'000'000),  // ceiling
          pgen::vector_of(
              pgen::pair_of(pgen::boolean(),  // true = inject
                            pgen::int_range(0, 500'000'000)),
              0, 32)),
      [](const std::tuple<std::int64_t,
                          std::vector<std::pair<bool, std::int64_t>>>& t) {
        const auto& [ceiling, ops] = t;
        FoundationPool pool(ceiling);
        for (const auto& [is_inject, amount] : ops) {
          if (is_inject) {
            const MicroAlgos injected = pool.inject(amount);
            if (injected < 0 || injected > amount)
              return Verdict{false, "inject returned " +
                                        std::to_string(injected) +
                                        " for request " +
                                        std::to_string(amount)};
          } else {
            const MicroAlgos taken = pool.withdraw(amount);
            if (taken < 0 || taken > amount)
              return Verdict{false, "withdraw returned " +
                                        std::to_string(taken) +
                                        " for request " +
                                        std::to_string(amount)};
          }
          if (pool.balance() < 0)
            return Verdict{false,
                           "balance went negative: " +
                               std::to_string(pool.balance())};
          if (pool.emitted() > pool.ceiling())
            return Verdict{false, "emitted " + std::to_string(pool.emitted()) +
                                      " past ceiling " +
                                      std::to_string(pool.ceiling())};
          if (pool.emitted() != pool.balance() + pool.disbursed())
            return Verdict{false,
                           "identity broken: emitted=" +
                               std::to_string(pool.emitted()) + " balance=" +
                               std::to_string(pool.balance()) +
                               " disbursed=" +
                               std::to_string(pool.disbursed())};
        }
        return Verdict{};
      });
}

// End-to-end round loop: schedule emission -> pool -> scheme budget ->
// distribution. Whatever the scheme does, µAlgos are conserved globally:
// emitted == balance + disbursed and payouts never exceed withdrawals.
PROP_TEST_WITH_PARAMS(PropRewards, PoolSchemeLoopConservesMicroAlgos, 300) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::role_snapshot(1, 24),
                     pgen::int_range(1, 40),      // rounds
                     pgen::boolean()),            // scheme pick
      [](const std::tuple<RoleSnapshot, std::int64_t, bool>& t) {
        const auto& [snap, rounds, role_based] = t;
        const auto run_loop = [&snap, rounds](auto& scheme) {
          FoundationPool pool;
          MicroAlgos paid_out = 0;
          MicroAlgos withdrawn = 0;
          for (std::int64_t r = 1; r <= rounds; ++r) {
            pool.inject(
                roleshare::econ::FoundationSchedule::reward_for_round(r));
            const MicroAlgos want = scheme.required_budget(r, snap);
            const MicroAlgos got = pool.withdraw(want);
            withdrawn += got;
            const Payouts payouts = scheme.distribute(r, snap, got);
            if (payouts.total > got)
              return Verdict{false, "round " + std::to_string(r) +
                                        " disbursed " +
                                        std::to_string(payouts.total) +
                                        " of " + std::to_string(got)};
            paid_out += payouts.total;
          }
          if (pool.emitted() != pool.balance() + pool.disbursed())
            return Verdict{false, "pool identity broken after " +
                                      std::to_string(rounds) + " rounds"};
          if (paid_out > withdrawn)
            return Verdict{false, "paid " + std::to_string(paid_out) +
                                      " but only withdrew " +
                                      std::to_string(withdrawn)};
          return Verdict{};
        };
        if (role_based) {
          RoleBasedScheme scheme(CostModel{});
          return run_loop(scheme);
        }
        StakeProportionalScheme scheme;
        return run_loop(scheme);
      });
}
