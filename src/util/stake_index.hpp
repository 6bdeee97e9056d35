// Incremental stake-weighted sampling index (Fenwick tree over integer
// stakes).
//
// The sampled committee model draws tau seats per step with replacement,
// each seat landing on node v with probability stake[v] / total. A fresh
// alias table would make every draw O(1) but costs an O(N) rebuild the
// moment any stake changes — and under compounding rewards stakes change
// every round, which would put an O(N) wall right back into the sparse
// round path. The Fenwick tree instead absorbs each stake delta in
// O(log N) and serves each draw in O(log N), so a round's election work
// is O(committee · log N) regardless of population size.
//
// Determinism contract (what makes sparse == dense bit-identical): the
// tree stores exact int64 stakes, every internal node is a plain integer
// sum, and a draw consumes exactly one rng.uniform_int(0, total - 1)
// before a deterministic descent. A freshly rebuilt index and an
// incrementally updated one holding the same leaf stakes are therefore
// indistinguishable — same totals, same cumulative sums, same draw for
// the same rng state. tests/prop/prop_sparse.cpp locks this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace roleshare::util {

class StakeIndex {
 public:
  StakeIndex() = default;
  /// Builds the index over `stakes` (all must be >= 0). O(n).
  explicit StakeIndex(std::span<const std::int64_t> stakes);

  /// Rebuilds over `stakes` (all >= 0), adopting the vector as the leaf
  /// array and reusing the tree's storage. O(n).
  void rebuild(std::vector<std::int64_t>&& stakes);

  /// Moves the leaf array out and leaves the index empty, so a caller can
  /// refill it and hand it back to rebuild without a second n-entry
  /// array.
  std::vector<std::int64_t> release_leaves();

  std::size_t size() const { return stake_.size(); }
  /// Sum of all stakes currently in the index.
  std::int64_t total() const { return total_; }
  /// Current stake of node v.
  std::int64_t stake_of(std::size_t v) const { return stake_[v]; }

  /// Sets node v's stake to `new_stake` (>= 0). O(log n).
  void update(std::size_t v, std::int64_t new_stake);

  /// Sum of stakes of nodes [0, v). O(log n).
  std::int64_t prefix_sum(std::size_t v) const;

  /// The node owning stake-offset `target` in [0, total): the smallest v
  /// with prefix_sum(v + 1) > target. Zero-stake nodes own no offsets and
  /// are never returned. O(log n).
  std::size_t find(std::int64_t target) const;

  /// Draws a node with probability stake / total. Consumes exactly one
  /// uniform_int(0, total - 1) from `rng`. Requires total() > 0.
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<std::int64_t> tree_;   // 1-based Fenwick partial sums
  std::vector<std::int64_t> stake_;  // leaf values
  std::int64_t total_ = 0;
  std::size_t descent_mask_ = 0;  // highest power of two <= size()
};

}  // namespace roleshare::util
