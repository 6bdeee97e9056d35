#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace {

/// Runs `build`, which constructs a model value from config fields, and
/// prefixes a refusal with the names of those fields.
template <typename Build>
void require_buildable(const char* fields, Build build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("NetworkConfig " + std::string(fields) +
                                ": " + e.what());
  }
}

// Runs in config_'s initializer, so a bad config is refused before any
// member allocates. Node ids are ledger::NodeId. The stake and delay
// value types hold their own range rules; building them here is the check.
const NetworkConfig& checked(const NetworkConfig& config) {
  RS_REQUIRE(config.node_count >= 4, "network needs at least 4 nodes");
  RS_REQUIRE(config.node_count <= std::numeric_limits<ledger::NodeId>::max(),
             "network node count exceeds the NodeId range");
  RS_REQUIRE(config.defection_rate >= 0.0 && config.defection_rate <= 1.0,
             "defection rate");
  RS_REQUIRE(config.faulty_rate >= 0.0 &&
                 config.defection_rate + config.faulty_rate <= 1.0,
             "faulty rate");
  require_buildable("stake_lo, stake_hi", [&] {
    util::StakeDistribution::uniform(config.stake_lo, config.stake_hi);
  });
  require_buildable("delay_lo_ms, delay_hi_ms", [&] {
    net::UniformDelay(config.delay_lo_ms, config.delay_hi_ms);
  });
  return config;
}

net::Topology build_topology(std::size_t n, std::size_t fan_out,
                             util::Rng& rng) {
  return net::Topology::random_k_out(n, std::min(fan_out, n - 1), rng);
}

}  // namespace

Network::Network(const NetworkConfig& config)
    : config_(checked(config)),
      master_rng_(config.seed),
      chain_(config.seed),
      topology_(build_topology(config.node_count, config.fan_out,
                               master_rng_)),
      delays_(config.delay_lo_ms, config.delay_hi_ms),
      synchrony_(config.synchrony) {
  // Keys and stake-funded accounts.
  keys_ = crypto::KeyPair::derive_all(config.seed, config.node_count);
  util::Rng stake_rng = master_rng_.split("stakes");
  const auto dist =
      util::StakeDistribution::uniform(config.stake_lo, config.stake_hi);
  for (std::size_t v = 0; v < config.node_count; ++v)
    accounts_.add_account(ledger::algos(dist.sample(stake_rng)));

  // Behaviour assignment: a random subset defects, a random subset is
  // faulty, the rest honest (or selfish when selfish_residual).
  behaviors_.assign(config.node_count, config.selfish_residual
                                           ? BehaviorType::Selfish
                                           : BehaviorType::Honest);
  util::Rng behavior_rng = master_rng_.split("behaviors");
  const auto n_defect = static_cast<std::size_t>(
      config.defection_rate * static_cast<double>(config.node_count) + 0.5);
  const auto n_faulty = static_cast<std::size_t>(
      config.faulty_rate * static_cast<double>(config.node_count) + 0.5);
  const auto picks = behavior_rng.sample_without_replacement(
      config.node_count, std::min(config.node_count, n_defect + n_faulty));
  for (std::size_t i = 0; i < picks.size(); ++i) {
    behaviors_[picks[i]] = i < n_defect ? BehaviorType::ScriptedDefect
                                        : BehaviorType::Faulty;
  }

  strategies_.assign(config.node_count, game::Strategy::Cooperate);
  live_mask_.assign(config.node_count, 1);
  live_count_ = config.node_count;
  util::Rng init_rng = master_rng_.split("initial-strategies");
  decide_strategies(econ::CostModel{}, 0.0, init_rng);
}

void Network::set_behavior(ledger::NodeId v, BehaviorType b) {
  RS_REQUIRE(v < behaviors_.size(), "node id out of range");
  behaviors_[v] = b;
}

void Network::set_live(ledger::NodeId v, bool is_live) {
  RS_REQUIRE(v < live_mask_.size(), "node id out of range");
  const std::uint8_t next = is_live ? 1 : 0;
  if (live_mask_[v] == next) return;
  live_mask_[v] = next;
  if (is_live) {
    ++live_count_;
  } else {
    --live_count_;
  }
}

void Network::decide_strategies(const econ::CostModel& costs,
                                double last_reward_per_stake,
                                util::Rng& rng) {
  const std::int64_t total = accounts_.total_stake();
  for (std::size_t v = 0; v < behaviors_.size(); ++v) {
    SelfishContext ctx;
    ctx.stake = accounts_.stake(static_cast<ledger::NodeId>(v));
    ctx.last_reward_per_stake = last_reward_per_stake;
    set_election_odds(ctx, total);
    strategies_[v] = choose_strategy(behaviors_[v], costs, ctx, rng);
  }
}

void Network::set_strategies(std::vector<game::Strategy> strategies) {
  RS_REQUIRE(strategies.size() == behaviors_.size(),
             "strategy vector size mismatch");
  strategies_ = std::move(strategies);
}

util::Rng Network::round_rng(ledger::Round round) const {
  return master_rng_.split(0x726f756e64ULL ^ round);  // "round" ^ r
}

}  // namespace roleshare::sim
