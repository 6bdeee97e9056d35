// Walker alias method: O(n) construction, O(1) weighted index draws.
// Used to sample stake-weighted participants (committee members,
// transaction parties) from populations of hundreds of thousands of nodes,
// where per-draw linear scans would dominate the experiment runtime.
//
// Edge-case contract (regression-tested in tests/test_stats.cpp):
//   - empty weights, any negative or non-finite weight, a zero total or a
//     total that overflows to infinity throw std::invalid_argument — a
//     degenerate distribution is a caller bug, never a silent uniform
//     fallback;
//   - a single positive entry always samples index 0;
//   - all-equal positive weights sample exactly uniformly (the scaled
//     probabilities are pinned to 1 instead of trusting the floating-point
//     sum, so no epsilon-sized bias toward alias partners);
//   - zero-weight entries are never returned.
// Every draw consumes exactly one uniform_int and one uniform01 from the
// rng regardless of the table's shape, so swapping weight vectors of the
// same size never desynchronizes downstream streams.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace roleshare::util {

class AliasSampler {
 public:
  /// Builds the table for the given finite non-negative weights (at least
  /// one must be positive). Throws std::invalid_argument otherwise.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Replaces the table with one for `weights`, reusing this sampler's
  /// buffers; draws then equal a fresh AliasSampler(weights)'s. Checks the
  /// weights as the constructor does before it writes anything, so a
  /// refused rebuild keeps the previous table.
  void rebuild(const std::vector<double>& weights);

  std::size_t size() const { return prob_.size(); }

  /// Draws an index with probability weight[i] / sum(weights).
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<std::uint32_t> work_;  // build worklists: small | ... | large
};

}  // namespace roleshare::util
