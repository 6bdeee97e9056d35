// Simulated Algorand network: accounts, keys, behaviours, gossip overlay
// and blockchain — the container the round engine operates on.
#pragma once

#include <vector>

#include "crypto/keypair.hpp"
#include "econ/cost_model.hpp"
#include "ledger/account_table.hpp"
#include "ledger/blockchain.hpp"
#include "net/delay_model.hpp"
#include "net/synchrony.hpp"
#include "net/topology.hpp"
#include "sim/behavior.hpp"

namespace roleshare::sim {

struct NetworkConfig {
  std::size_t node_count = 300;
  std::uint64_t seed = 1;
  /// Gossip fan-out (the paper's simulator: 5).
  std::size_t fan_out = 5;
  /// Stake distribution for initial balances (paper Fig 3: U(1, 50)).
  std::int64_t stake_lo = 1;
  std::int64_t stake_hi = 50;
  /// Fraction of nodes scripted to defect (Fig 3: 0.05 .. 0.30) — selected
  /// uniformly at random.
  double defection_rate = 0.0;
  /// Fraction of faulty (offline) nodes.
  double faulty_rate = 0.0;
  /// Remaining nodes' behaviour: honest by default; set true to make them
  /// payoff-driven selfish deciders instead.
  bool selfish_residual = false;
  /// Per-hop delay range (uniform), ms.
  double delay_lo_ms = 20.0;
  double delay_hi_ms = 120.0;
  net::SynchronyConfig synchrony{};
};

class Network {
 public:
  explicit Network(const NetworkConfig& config);

  std::size_t node_count() const { return keys_.size(); }
  const NetworkConfig& config() const { return config_; }

  const std::vector<crypto::KeyPair>& keys() const { return keys_; }
  const ledger::AccountTable& accounts() const { return accounts_; }
  ledger::AccountTable& accounts() { return accounts_; }
  const ledger::Blockchain& chain() const { return chain_; }
  ledger::Blockchain& chain() { return chain_; }
  const net::Topology& topology() const { return topology_; }
  const net::UniformDelay& delays() const { return delays_; }
  net::SynchronyController& synchrony() { return synchrony_; }

  BehaviorType behavior(ledger::NodeId v) const { return behaviors_.at(v); }
  void set_behavior(ledger::NodeId v, BehaviorType b);

  /// Churn support: whether node v is currently part of the network.
  /// Departed nodes keep their keys, account and behaviour but do not
  /// participate in sortition, gossip or rewards until they rejoin — the
  /// round engine indexes live nodes through this mask.
  bool live(ledger::NodeId v) const { return live_mask_.at(v) != 0; }
  const std::vector<std::uint8_t>& live_mask() const { return live_mask_; }
  void set_live(ledger::NodeId v, bool is_live);
  /// Number of live nodes (== node_count() until churn removes some).
  std::size_t live_count() const { return live_count_; }

  /// The strategy each node plays in the upcoming round.
  const std::vector<game::Strategy>& strategies() const {
    return strategies_;
  }

  /// Re-evaluates every node's strategy for the next round.
  /// `last_reward_per_stake` is the observed per-unit reward of the
  /// previous round (µAlgos per Algo), driving the selfish rule.
  void decide_strategies(const econ::CostModel& costs,
                         double last_reward_per_stake, util::Rng& rng);

  /// Overrides the strategies for the upcoming round directly (used by the
  /// best-response strategic loop, which computes them game-theoretically
  /// instead of via behaviour heuristics).
  void set_strategies(std::vector<game::Strategy> strategies);

  /// Root RNG stream for a given round (split deterministically).
  util::Rng round_rng(ledger::Round round) const;

 private:
  // Declared first: its initializer checks the config before any other
  // member allocates.
  NetworkConfig config_;
  util::Rng master_rng_;
  std::vector<crypto::KeyPair> keys_;
  ledger::AccountTable accounts_;
  ledger::Blockchain chain_;
  net::Topology topology_;
  net::UniformDelay delays_;
  net::SynchronyController synchrony_;
  std::vector<BehaviorType> behaviors_;
  std::vector<game::Strategy> strategies_;
  std::vector<std::uint8_t> live_mask_;
  std::size_t live_count_ = 0;
};

}  // namespace roleshare::sim
