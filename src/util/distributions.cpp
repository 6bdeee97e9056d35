#include "util/distributions.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::util {

StakeDistribution StakeDistribution::uniform(std::int64_t lo,
                                             std::int64_t hi) {
  RS_REQUIRE(lo >= 1, "stakes must be positive");
  RS_REQUIRE(lo <= hi, "uniform stake range");
  return {Kind::Uniform, static_cast<double>(lo), static_cast<double>(hi)};
}

StakeDistribution StakeDistribution::normal(double mean, double sigma) {
  RS_REQUIRE(sigma >= 0.0, "normal stake sigma");
  return {Kind::Normal, mean, sigma};
}

std::int64_t StakeDistribution::sample(Rng& rng) const {
  if (kind_ == Kind::Uniform) {
    return rng.uniform_int(static_cast<std::int64_t>(a_),
                           static_cast<std::int64_t>(b_));
  }
  const double draw = rng.normal(a_, b_);
  const auto rounded = static_cast<std::int64_t>(std::llround(draw));
  return rounded < 1 ? 1 : rounded;
}

std::vector<std::int64_t> StakeDistribution::sample_many(Rng& rng,
                                                         std::size_t n) const {
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample(rng));
  return out;
}

std::string StakeDistribution::name() const {
  if (kind_ == Kind::Uniform) {
    return "U(" + std::to_string(static_cast<std::int64_t>(a_)) + "," +
           std::to_string(static_cast<std::int64_t>(b_)) + ")";
  }
  auto fmt = [](double v) {
    // Print integers without a trailing ".0" so names match the paper.
    if (v == std::floor(v)) return std::to_string(static_cast<long long>(v));
    return std::to_string(v);
  };
  return "N(" + fmt(a_) + "," + fmt(b_) + ")";
}

}  // namespace roleshare::util
