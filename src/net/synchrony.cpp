#include "net/synchrony.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::net {

SynchronyController::SynchronyController(SynchronyConfig config)
    : config_(config) {
  RS_REQUIRE(config.degrade_probability >= 0.0 &&
                 config.degrade_probability <= 1.0,
             "degrade probability");
  RS_REQUIRE(std::isfinite(config.degraded_delay_factor),
             "degraded_delay_factor must be finite");
  RS_REQUIRE(config.degraded_delay_factor >= 1.0, "degraded delay factor");
}

SynchronyState SynchronyController::advance_round(util::Rng& rng) {
  if (state_ == SynchronyState::Degraded) {
    ++degraded_run_;
    if (degraded_run_ >= config_.max_degraded_rounds) {
      // Weak synchrony guarantee: the asynchronous period is bounded.
      state_ = SynchronyState::Strong;
      degraded_run_ = 0;
    }
  } else if (rng.bernoulli(config_.degrade_probability)) {
    state_ = SynchronyState::Degraded;
    degraded_run_ = 0;
  }
  return state_;
}

double SynchronyController::delay_factor() const {
  return state_ == SynchronyState::Degraded ? config_.degraded_delay_factor
                                            : 1.0;
}

void SynchronyController::force(SynchronyState s) {
  state_ = s;
  degraded_run_ = 0;
}

}  // namespace roleshare::net
