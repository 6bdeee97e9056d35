// Per-hop message delays.
//
// Each gossip hop samples an independent delay, uniform on [lo, hi] ms.
// The synchrony controller (synchrony.hpp) scales these delays when the
// network degrades.
#pragma once

#include "net/sim_time.hpp"
#include "util/rng.hpp"

namespace roleshare::net {

/// Uniform delay on [lo, hi] ms (default in the Fig-3 scenarios: [20, 120]).
/// A zero-width range [v, v] is a constant delay: it returns v without
/// drawing.
class UniformDelay {
 public:
  /// Requires finite bounds with 0 <= lo <= hi, so every sample is bounded.
  UniformDelay(TimeMs lo, TimeMs hi);

  /// Samples one hop's propagation + processing delay, in ms.
  TimeMs sample(util::Rng& rng) const {
    if (lo_ == hi_) return lo_;
    return rng.uniform_real(lo_, hi_);
  }

  /// Upper bound on every sample (up to one rounding of the sampling
  /// arithmetic). The gossip reachability certificate (gossip.hpp) rests
  /// on it.
  TimeMs max_delay() const { return hi_; }

 private:
  TimeMs lo_;
  TimeMs hi_;
};

}  // namespace roleshare::net
