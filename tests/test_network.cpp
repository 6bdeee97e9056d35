#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

namespace roleshare::sim {
namespace {

NetworkConfig small_config() {
  NetworkConfig config;
  config.node_count = 60;
  config.seed = 11;
  config.fan_out = 5;
  return config;
}

TEST(Network, BuildsAccountsAndKeys) {
  const Network net(small_config());
  EXPECT_EQ(net.node_count(), 60u);
  EXPECT_EQ(net.accounts().size(), 60u);
  EXPECT_EQ(net.keys().size(), 60u);
  for (std::size_t v = 0; v < 60; ++v) {
    const auto stake = net.accounts().stake(static_cast<ledger::NodeId>(v));
    EXPECT_GE(stake, 1);
    EXPECT_LE(stake, 50);  // default U(1, 50)
  }
}

// Nothing looks a node up by its public key, so no Network build checks
// that the keys differ; this test does, over 10,000 derived keys.
TEST(Network, KeysAreDistinct) {
  NetworkConfig config = small_config();
  config.node_count = 10'000;
  const Network net(config);
  std::vector<crypto::PublicKey> keys;
  keys.reserve(net.node_count());
  for (const crypto::KeyPair& k : net.keys()) keys.push_back(k.public_key());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Network, DeterministicForSeed) {
  const Network a(small_config());
  const Network b(small_config());
  EXPECT_EQ(a.accounts().stakes(), b.accounts().stakes());
  for (std::size_t v = 0; v < a.node_count(); ++v)
    EXPECT_EQ(a.behavior(static_cast<ledger::NodeId>(v)),
              b.behavior(static_cast<ledger::NodeId>(v)));
}

TEST(Network, DifferentSeedsDiffer) {
  NetworkConfig other = small_config();
  other.seed = 12;
  const Network a(small_config());
  const Network b(other);
  EXPECT_NE(a.accounts().stakes(), b.accounts().stakes());
}

TEST(Network, DefectionRateAssignsScriptedDefectors) {
  NetworkConfig config = small_config();
  config.defection_rate = 0.25;
  const Network net(config);
  std::size_t defectors = 0;
  for (std::size_t v = 0; v < net.node_count(); ++v)
    if (net.behavior(static_cast<ledger::NodeId>(v)) ==
        BehaviorType::ScriptedDefect)
      ++defectors;
  EXPECT_EQ(defectors, 15u);  // 25% of 60
}

TEST(Network, FaultyRateAssignsOfflineNodes) {
  NetworkConfig config = small_config();
  config.defection_rate = 0.1;
  config.faulty_rate = 0.1;
  const Network net(config);
  std::size_t defect = 0, faulty = 0;
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    const auto b = net.behavior(static_cast<ledger::NodeId>(v));
    if (b == BehaviorType::ScriptedDefect) ++defect;
    if (b == BehaviorType::Faulty) ++faulty;
  }
  EXPECT_EQ(defect, 6u);
  EXPECT_EQ(faulty, 6u);
}

TEST(Network, StrategiesFollowBehaviors) {
  NetworkConfig config = small_config();
  config.defection_rate = 0.2;
  Network net(config);
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    const auto b = net.behavior(static_cast<ledger::NodeId>(v));
    const auto s = net.strategies()[v];
    if (b == BehaviorType::Honest) {
      EXPECT_EQ(s, game::Strategy::Cooperate);
    }
    if (b == BehaviorType::ScriptedDefect) {
      EXPECT_EQ(s, game::Strategy::Defect);
    }
    if (b == BehaviorType::Faulty) {
      EXPECT_EQ(s, game::Strategy::Offline);
    }
  }
}

TEST(Network, SelfishResidualReactsToRewards) {
  NetworkConfig config = small_config();
  config.selfish_residual = true;
  Network net(config);
  util::Rng rng(1);
  // No rewards observed: all selfish nodes defect.
  net.decide_strategies(econ::CostModel{}, 0.0, rng);
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    if (net.behavior(static_cast<ledger::NodeId>(v)) ==
        BehaviorType::Selfish) {
      EXPECT_EQ(net.strategies()[v], game::Strategy::Defect);
    }
  }
  // Generous observed rate: they cooperate.
  net.decide_strategies(econ::CostModel{}, 100.0, rng);
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    if (net.behavior(static_cast<ledger::NodeId>(v)) ==
        BehaviorType::Selfish) {
      EXPECT_EQ(net.strategies()[v], game::Strategy::Cooperate);
    }
  }
}

TEST(Network, SetBehaviorOverrides) {
  Network net(small_config());
  net.set_behavior(3, BehaviorType::Faulty);
  EXPECT_EQ(net.behavior(3), BehaviorType::Faulty);
  EXPECT_THROW(net.set_behavior(999, BehaviorType::Honest),
               std::invalid_argument);
}

TEST(Network, RoundRngIsPerRoundDeterministic) {
  const Network net(small_config());
  util::Rng a = net.round_rng(5);
  util::Rng b = net.round_rng(5);
  util::Rng c = net.round_rng(6);
  EXPECT_EQ(a(), b());
  util::Rng a2 = net.round_rng(5);
  EXPECT_NE(a2(), c());
}

TEST(Network, TopologyHasConfiguredFanOut) {
  const Network net(small_config());
  EXPECT_EQ(net.topology().node_count(), 60u);
  EXPECT_EQ(net.topology().fan_out(), 5u);
}

TEST(Network, RejectsBadRates) {
  NetworkConfig config = small_config();
  config.defection_rate = 0.8;
  config.faulty_rate = 0.5;  // sum > 1
  EXPECT_THROW(Network{config}, std::invalid_argument);
  config = small_config();
  config.node_count = 2;
  EXPECT_THROW(Network{config}, std::invalid_argument);
}

/// What building a Network from `config` throws, or "no exception".
std::string refusal(const NetworkConfig& config) {
  try {
    const Network net(config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

// The node count is checked before anything is allocated: zero nodes is
// not reported by the topology, and a count past the NodeId range is
// refused instead of wrapping node ids.
TEST(Network, RejectsNodeCountsBeforeBuilding) {
  const auto message_for = [](std::size_t node_count) {
    NetworkConfig config = small_config();
    config.node_count = node_count;
    return refusal(config);
  };
  const std::string empty = message_for(0);
  EXPECT_NE(empty.find("network needs at least 4 nodes"), std::string::npos)
      << empty;
  const std::string huge = message_for((std::size_t{1} << 32) + 4);
  EXPECT_NE(huge.find("network node count exceeds the NodeId range"),
            std::string::npos)
      << huge;
}

TEST(Network, RefusesBadStakeAndDelayRangesUpFront) {
  // The config check builds the stake and delay types, so a bad range is
  // refused naming its fields before the keys or the topology are built.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto stake_refusal = [](std::int64_t lo, std::int64_t hi) {
    NetworkConfig config = small_config();
    config.stake_lo = lo;
    config.stake_hi = hi;
    return refusal(config);
  };
  for (const std::string& message :
       {stake_refusal(0, 50), stake_refusal(-3, 50), stake_refusal(9, 8)}) {
    EXPECT_NE(message.find("NetworkConfig stake_lo, stake_hi"),
              std::string::npos)
        << message;
  }
  const auto delay_refusal = [](double lo, double hi) {
    NetworkConfig config = small_config();
    config.delay_lo_ms = lo;
    config.delay_hi_ms = hi;
    return refusal(config);
  };
  for (const std::string& message :
       {delay_refusal(-1.0, 120.0), delay_refusal(20.0, -1.0),
        delay_refusal(120.0, 20.0), delay_refusal(20.0, inf),
        delay_refusal(nan, 120.0)}) {
    EXPECT_NE(message.find("NetworkConfig delay_lo_ms, delay_hi_ms"),
              std::string::npos)
        << message;
  }
  // The edges of both ranges still build.
  NetworkConfig edges = small_config();
  edges.stake_lo = edges.stake_hi = 1;
  edges.delay_lo_ms = edges.delay_hi_ms = 0.0;
  EXPECT_EQ(refusal(edges), "no exception");
}

TEST(Network, GenesisChainReady) {
  const Network net(small_config());
  EXPECT_EQ(net.chain().height(), 1u);
  EXPECT_EQ(net.chain().next_round(), 1u);
}

}  // namespace
}  // namespace roleshare::sim
