// Property suite: BA round invariants under randomized network
// configurations, scenario policies and churn (DESIGN.md §8).
//
// Whatever the population, stake spread, defection/faulty mix, synchrony
// degradation or churn schedule, every simulated round must deliver a
// coherent result: safety (the chain extends its own tip by exactly one
// agreed block), termination (the engine returns with every node
// classified), and bookkeeping consistency (fractions over the live
// population, zero stake for non-participants, observed roles a subset
// of true roles). These are the invariants the handwritten
// tests/test_properties.cpp sweeps check at fixed configurations —
// here the configuration itself is the fuzzed input.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "consensus/params.hpp"
#include "gen/domain_gen.hpp"
#include "sim/network.hpp"
#include "sim/round_engine.hpp"
#include "sim/scenario_policy.hpp"
#include "util/proptest.hpp"

namespace {

using roleshare::consensus::Role;
using roleshare::sim::Network;
using roleshare::sim::NetworkConfig;
using roleshare::sim::NodeOutcome;
using roleshare::sim::RoundEngine;
using roleshare::sim::RoundResult;
using roleshare::sim::ScenarioPolicy;
using roleshare::sim::ScenarioPolicyConfig;
using roleshare::util::proptest::Verdict;
namespace pgen = roleshare::util::proptest::gen;

std::string describe_config(const NetworkConfig& config,
                            const ScenarioPolicyConfig& policy,
                            std::size_t rounds) {
  return "nodes=" + std::to_string(config.node_count) +
         " seed=" + std::to_string(config.seed) +
         " defect=" + std::to_string(config.defection_rate) +
         " faulty=" + std::to_string(config.faulty_rate) +
         " policy=" + std::string(to_string(policy.kind)) +
         " churn(leave=" + std::to_string(policy.churn.leave_probability) +
         ",join=" + std::to_string(policy.churn.join_probability) +
         ",floor=" + std::to_string(policy.churn.min_live) + ")" +
         " rounds=" + std::to_string(rounds);
}

// One round's invariant bundle; `live_expected` is what the policy layer
// reported from begin_round.
Verdict round_invariants(const Network& net, const RoundResult& result,
                         std::size_t live_expected,
                         const roleshare::crypto::Hash256& tip_before) {
  const std::size_t n = net.node_count();
  if (result.outcomes.size() != n)
    return Verdict{false, "outcomes covers " +
                              std::to_string(result.outcomes.size()) +
                              " of " + std::to_string(n) + " nodes"};
  if (result.live_count != live_expected)
    return Verdict{false, "live_count " + std::to_string(result.live_count) +
                              " != policy-reported " +
                              std::to_string(live_expected)};
  if (result.live_count == 0 || result.live_count > n)
    return Verdict{false,
                   "implausible live_count " +
                       std::to_string(result.live_count)};

  // Termination bookkeeping: fractions are the outcome counts over the
  // live population and sum to one.
  std::size_t finals = 0, tentatives = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (result.outcomes[v] == NodeOutcome::Final) ++finals;
    if (result.outcomes[v] == NodeOutcome::Tentative) ++tentatives;
  }
  const double live = static_cast<double>(result.live_count);
  if (std::abs(result.final_fraction - finals / live) > 1e-9 ||
      std::abs(result.tentative_fraction - tentatives / live) > 1e-9)
    return Verdict{false, "fractions disagree with outcome counts"};
  if (std::abs(result.final_fraction + result.tentative_fraction +
               result.none_fraction - 1.0) > 1e-9)
    return Verdict{false, "fractions sum to " +
                              std::to_string(result.final_fraction +
                                             result.tentative_fraction +
                                             result.none_fraction)};

  // Safety: the chain extended its own tip by exactly the agreed block.
  if (!(net.chain().tip().prev_hash() == tip_before))
    return Verdict{false, "new tip does not extend the previous tip"};
  if (net.chain().tip().is_empty() == result.non_empty_block)
    return Verdict{false, "non_empty_block disagrees with the chain tip"};

  // Role snapshots: aligned with node ids; non-participants carry zero
  // stake; a node never *observably* holds a role its true roles deny.
  if (!result.roles.has_value() || !result.roles_true.has_value())
    return Verdict{false, "round result lacks role snapshots"};
  if (result.roles->node_count() != n || result.roles_true->node_count() != n)
    return Verdict{false, "role snapshot misaligned with the population"};
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<roleshare::ledger::NodeId>(v);
    if (result.roles->stake(id) < 0 || result.roles_true->stake(id) < 0)
      return Verdict{false, "negative stake in a role snapshot"};
    if (!net.live(id)) {
      if (result.outcomes[v] != NodeOutcome::NoBlock)
        return Verdict{false,
                       "departed node " + std::to_string(v) +
                           " reported an outcome"};
      if (result.roles->stake(id) != 0)
        return Verdict{false, "departed node " + std::to_string(v) +
                                  " carries reward stake"};
    }
    const Role observed = result.roles->role(id);
    const Role truth = result.roles_true->role(id);
    if (observed == Role::Leader && truth != Role::Leader)
      return Verdict{false, "node " + std::to_string(v) +
                                " observed as leader but not truly one"};
    if (observed == Role::Committee && truth == Role::Other)
      return Verdict{false, "node " + std::to_string(v) +
                                " observed on committee but truly Other"};
  }
  return Verdict{};
}

}  // namespace

// Expensive (each case builds a network and runs full BA rounds), so the
// default count is modest; the nightly ROLESHARE_PROP_SCALE run
// multiplies it.
PROP_TEST_WITH_PARAMS(PropConsensus, RoundInvariantsUnderRandomScenarios,
                      25) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::network_config(24, 64),
                     roleshare::testgen::scenario_policy(),
                     pgen::size_range(1, 3)),
      [](const std::tuple<NetworkConfig, ScenarioPolicyConfig, std::size_t>&
             t) {
        const auto& [net_config, policy_config, rounds] = t;
        Network net(net_config);
        RoundEngine engine(net,
                           roleshare::consensus::ConsensusParams::scaled_for(
                               net.accounts().total_stake()));
        ScenarioPolicy policy(policy_config, net,
                              engine.params().step_threshold);
        RoundResult last;
        const RoundResult* last_ptr = nullptr;
        for (std::size_t r = 0; r < rounds; ++r) {
          const std::size_t live =
              policy.begin_round(r, last_ptr, engine.executor());
          const auto tip_before = net.chain().tip().hash();
          const std::size_t height_before = net.chain().height();
          last = engine.run_round();
          last_ptr = &last;
          if (net.chain().height() != height_before + 1)
            return Verdict{false, "round " + std::to_string(r) +
                                      " did not extend the chain by one"};
          Verdict v = round_invariants(net, last, live, tip_before);
          if (!v.ok) {
            v.note = "round " + std::to_string(r) + ": " + v.note;
            return v;
          }
        }
        return Verdict{};
      },
      [](const std::tuple<NetworkConfig, ScenarioPolicyConfig, std::size_t>&
             t) {
        return describe_config(std::get<0>(t), std::get<1>(t),
                               std::get<2>(t));
      });
}

// Determinism: the same (config, policy) draw replayed on a fresh
// network reproduces the identical outcome — the bit-identical seeding
// discipline every experiment and shard depends on.
PROP_TEST_WITH_PARAMS(PropConsensus, RoundsAreDeterministicInTheSeed, 10) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::network_config(24, 48),
                     roleshare::testgen::scenario_policy()),
      [](const std::tuple<NetworkConfig, ScenarioPolicyConfig>& t) {
        const auto& [net_config, policy_config] = t;
        const auto execute = [&]() {
          Network net(net_config);
          RoundEngine engine(
              net, roleshare::consensus::ConsensusParams::scaled_for(
                       net.accounts().total_stake()));
          ScenarioPolicy policy(policy_config, net,
                              engine.params().step_threshold);
          std::string trace;
          RoundResult last;
          const RoundResult* last_ptr = nullptr;
          for (std::size_t r = 0; r < 2; ++r) {
            policy.begin_round(r, last_ptr, engine.executor());
            last = engine.run_round();
            last_ptr = &last;
            trace += std::to_string(last.final_fraction) + "/" +
                     std::to_string(last.tentative_fraction) + "/" +
                     std::to_string(last.live_count) + "/" +
                     (last.non_empty_block ? "b" : "e") + ";";
          }
          return trace;
        };
        const std::string first = execute();
        const std::string second = execute();
        if (first != second)
          return Verdict{false,
                         "two executions diverged: " + first + " vs " +
                             second};
        return Verdict{};
      });
}
