// Stake distributions of the paper's evaluation: U(1,50) for the Fig-3
// network experiments, U(1,200) / N(100,20) / N(100,10) / N(2000,25) for
// the Fig-6/7 reward analysis.
//
// Stakes are positive integers (whole Algos, as in the paper). Normal draws
// are rounded and clamped below at 1 so no account ends up with a
// non-positive stake.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace roleshare::util {

/// One account's stake distribution, in whole Algos: a copyable value,
/// uniform or normal, with its two parameters.
class StakeDistribution {
 public:
  enum class Kind : std::uint8_t { Uniform, Normal };

  /// Discrete uniform on [lo, hi], inclusive; requires 1 <= lo <= hi.
  static StakeDistribution uniform(std::int64_t lo, std::int64_t hi);
  /// Rounded normal N(mean, sigma), clamped below at 1; requires
  /// sigma >= 0.
  static StakeDistribution normal(double mean, double sigma);

  Kind kind() const { return kind_; }
  /// Uniform: lo and hi (exact up to 2^53). Normal: mean and sigma.
  double a() const { return a_; }
  double b() const { return b_; }

  /// Draws one stake value (always >= 1).
  std::int64_t sample(Rng& rng) const;

  /// Draws `n` stakes.
  std::vector<std::int64_t> sample_many(Rng& rng, std::size_t n) const;

  /// The paper's notation, e.g. "U(1,200)" or "N(100,20)" — used in
  /// benchmark output rows.
  std::string name() const;

 private:
  StakeDistribution(Kind kind, double a, double b)
      : kind_(kind), a_(a), b_(b) {}

  Kind kind_;
  double a_;
  double b_;
};

}  // namespace roleshare::util
