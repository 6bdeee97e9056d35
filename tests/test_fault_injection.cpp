// Failure-injection suite: malicious and faulty behaviours, degraded
// synchrony, and adversarial parameter corners — the protocol must degrade
// (liveness) without ever violating safety (two honest nodes finalizing
// different blocks in one round).
#include <gtest/gtest.h>

#include "sim/round_engine.hpp"

namespace roleshare::sim {
namespace {

NetworkConfig base(std::uint64_t seed, std::size_t nodes = 100) {
  NetworkConfig config;
  config.node_count = nodes;
  config.seed = seed;
  return config;
}

consensus::ConsensusParams params_for(const Network& net) {
  return consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
}

TEST(FaultInjection, MaliciousMinorityDoesNotBreakSafety) {
  // 20% malicious (randomly cooperating/defecting per round, drawn from
  // the test's own stream): the chain must stay a single hash-linked
  // history; rounds may degrade.
  Network net(base(501));
  util::Rng rng(1);
  const std::vector<std::size_t> malicious = rng.sample_without_replacement(
      net.node_count(), net.node_count() / 5);
  util::Rng decide = rng.split("decide");
  RoundEngine engine(net, params_for(net));
  for (int r = 1; r <= 6; ++r) {
    std::vector<game::Strategy> strategies = net.strategies();
    for (const std::size_t v : malicious)
      strategies[v] = decide.bernoulli(0.5) ? game::Strategy::Cooperate
                                            : game::Strategy::Defect;
    net.set_strategies(std::move(strategies));
    const RoundResult result = engine.run_round();
    EXPECT_EQ(result.round, static_cast<ledger::Round>(r));
  }
  // Chain integrity end to end.
  for (std::size_t i = 1; i < net.chain().height(); ++i) {
    EXPECT_EQ(net.chain().at(i).prev_hash(), net.chain().at(i - 1).hash());
  }
}

TEST(FaultInjection, MassFaultsStallButNeverCorrupt) {
  NetworkConfig config = base(502);
  config.faulty_rate = 0.5;
  Network net(config);
  RoundEngine engine(net, params_for(net));
  for (int r = 0; r < 3; ++r) {
    const RoundResult result = engine.run_round();
    // Offline half contributes NoBlock outcomes; fractions stay coherent.
    EXPECT_GE(result.none_fraction, 0.45);
    EXPECT_NEAR(result.final_fraction + result.tentative_fraction +
                    result.none_fraction,
                1.0, 1e-9);
  }
  EXPECT_EQ(net.chain().height(), 4u);  // chain always advances
}

TEST(FaultInjection, CombinedDefectionAndFaultsCompound) {
  NetworkConfig healthy_config = base(503);
  NetworkConfig mixed_config = base(503);
  mixed_config.defection_rate = 0.2;
  mixed_config.faulty_rate = 0.2;
  Network healthy(healthy_config);
  Network mixed(mixed_config);
  RoundEngine e1(healthy, params_for(healthy));
  RoundEngine e2(mixed, params_for(mixed));
  double f1 = 0, f2 = 0;
  for (int r = 0; r < 4; ++r) {
    f1 += e1.run_round().final_fraction;
    f2 += e2.run_round().final_fraction;
  }
  EXPECT_LT(f2, f1);
}

TEST(FaultInjection, RecoveryAfterDegradedRounds) {
  // Force weak synchrony for a bounded run, then strong again: final
  // consensus must recover — the paper's Fig-3(c) pattern.
  NetworkConfig config = base(504);
  config.synchrony.degrade_probability = 1.0;
  config.synchrony.degraded_delay_factor = 300.0;
  config.synchrony.max_degraded_rounds = 2;
  Network net(config);
  RoundEngine engine(net, params_for(net));

  std::vector<double> finals;
  for (int r = 0; r < 6; ++r) finals.push_back(engine.run_round().final_fraction);
  // With max_degraded_rounds = 2 and p = 1, state alternates; at least one
  // round must be degraded-poor and at least one strong-healthy.
  const double worst = *std::min_element(finals.begin(), finals.end());
  const double best = *std::max_element(finals.begin(), finals.end());
  EXPECT_LT(worst, 0.5);
  EXPECT_GT(best, 0.9);
}

TEST(FaultInjection, WhaleDefectionHurtsMoreThanMinnows) {
  // The paper's observation: defecting *rich* nodes amplify the damage
  // (they are more likely to hold roles). Compare defecting the top-stake
  // decile vs the bottom decile.
  auto run_with_defectors = [](bool whales) {
    Network net(base(505, 120));
    // Rank nodes by stake.
    std::vector<std::pair<std::int64_t, ledger::NodeId>> ranked;
    for (std::size_t v = 0; v < net.node_count(); ++v)
      ranked.emplace_back(net.accounts().stake(static_cast<ledger::NodeId>(v)),
                          static_cast<ledger::NodeId>(v));
    std::sort(ranked.begin(), ranked.end());
    const std::size_t tenth = net.node_count() / 10;
    for (std::size_t i = 0; i < 3 * tenth; ++i) {
      const auto idx = whales ? ranked.size() - 1 - i : i;
      net.set_behavior(ranked[idx].second, BehaviorType::ScriptedDefect);
    }
    util::Rng rng(9);
    net.decide_strategies(rng);
    RoundEngine engine(net, consensus::ConsensusParams::scaled_for(
                                net.accounts().total_stake()));
    double final_sum = 0;
    for (int r = 0; r < 4; ++r) final_sum += engine.run_round().final_fraction;
    return final_sum / 4;
  };
  EXPECT_LT(run_with_defectors(true), run_with_defectors(false) + 1e-9);
}

TEST(FaultInjection, SingleOnlineNodeDegenerateNetwork) {
  // Everyone offline except a handful: no quorum is reachable, no crash.
  NetworkConfig config = base(506, 50);
  config.faulty_rate = 0.9;
  Network net(config);
  RoundEngine engine(net, params_for(net));
  const RoundResult result = engine.run_round();
  EXPECT_LT(result.final_fraction, 0.2);
  EXPECT_EQ(net.chain().height(), 2u);
}

}  // namespace
}  // namespace roleshare::sim
