#include "net/delay_model.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::net {

UniformDelay::UniformDelay(TimeMs lo, TimeMs hi) : lo_(lo), hi_(hi) {
  // An infinite hi passes lo <= hi, then samples NaN when uniform01()
  // draws 0: (inf - lo) * 0.
  RS_REQUIRE(std::isfinite(lo) && std::isfinite(hi),
             "uniform delay lo and hi must be finite");
  RS_REQUIRE(lo >= 0.0 && lo <= hi, "uniform delay range");
}

TimeMs UniformDelay::sample(util::Rng& rng, ledger::NodeId,
                            ledger::NodeId) const {
  if (lo_ == hi_) return lo_;
  return rng.uniform_real(lo_, hi_);
}

TimeMs UniformDelay::max_delay() const { return hi_; }

std::string UniformDelay::name() const {
  return "UniformDelay[" + std::to_string(lo_) + "," + std::to_string(hi_) +
         "]ms";
}

ConstantDelay::ConstantDelay(TimeMs value) : value_(value) {
  RS_REQUIRE(std::isfinite(value), "constant delay value must be finite");
  RS_REQUIRE(value >= 0.0, "constant delay");
}

TimeMs ConstantDelay::sample(util::Rng&, ledger::NodeId,
                             ledger::NodeId) const {
  return value_;
}

TimeMs ConstantDelay::max_delay() const { return value_; }

std::string ConstantDelay::name() const {
  return "ConstDelay[" + std::to_string(value_) + "]ms";
}

std::unique_ptr<DelayModel> make_uniform_delay(TimeMs lo, TimeMs hi) {
  return std::make_unique<UniformDelay>(lo, hi);
}

}  // namespace roleshare::net
