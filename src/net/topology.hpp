// Gossip overlay topology.
//
// The paper's simulator sends each message to 5 randomly selected peers
// (§III-C). We model this as a static random k-out digraph sampled once per
// run: node v relays to out_neighbors(v). Connectivity of the underlying
// graph is what the synchrony of the round hinges on once defectors stop
// relaying.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ledger/types.hpp"
#include "util/rng.hpp"

namespace roleshare::net {

class Topology {
 public:
  /// Samples a random k-out digraph on `n` nodes (no self-loops, no
  /// duplicate edges). Requires k < n.
  static Topology random_k_out(std::size_t n, std::size_t k,
                               util::Rng& rng);

  /// Builds a topology from explicit adjacency (used by tests).
  static Topology from_adjacency(
      std::vector<std::vector<ledger::NodeId>> adjacency);

  std::size_t node_count() const { return out_offsets_.size() - 1; }
  std::size_t fan_out() const { return fan_out_; }

  std::span<const ledger::NodeId> out_neighbors(ledger::NodeId v) const;

  /// Nodes that relay *to* v (precomputed reverse adjacency).
  std::span<const ledger::NodeId> in_neighbors(ledger::NodeId v) const;

 private:
  Topology() = default;
  void build_reverse();

  // Compressed sparse rows: v's out-row is out_targets_[out_offsets_[v],
  // out_offsets_[v + 1]), its in-row likewise in in_sources_. Each offset
  // array holds node_count() + 1 entries.
  std::vector<std::size_t> out_offsets_{0};
  std::vector<ledger::NodeId> out_targets_;
  std::vector<std::size_t> in_offsets_{0};
  std::vector<ledger::NodeId> in_sources_;
  std::size_t fan_out_ = 0;
};

}  // namespace roleshare::net
