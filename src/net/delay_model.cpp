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

}  // namespace roleshare::net
