#include "util/streaming_stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace roleshare::util {

P2Quantile::P2Quantile(double q) : q_(q) {
  RS_REQUIRE(q > 0.0 && q < 1.0, "P2 quantile in (0, 1)");
  desired_ = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0};
  increments_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (std::size_t i = 0; i < 5; ++i)
        positions_[i] = static_cast<double>(i + 1);
    }
    return;
  }

  // Locate the cell containing x and clamp the extreme markers.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];
  ++count_;

  // Nudge the three interior markers toward their desired positions with
  // the piecewise-parabolic (fallback linear) update.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double step_up = positions_[i + 1] - positions_[i];
    const double step_dn = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && step_up > 1.0) || (d <= -1.0 && step_dn < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      // Parabolic prediction of the marker height at positions_[i] + s.
      const double np = positions_[i];
      const double parabolic =
          heights_[i] +
          s / (positions_[i + 1] - positions_[i - 1]) *
              ((np - positions_[i - 1] + s) * (heights_[i + 1] - heights_[i]) /
                   step_up +
               (positions_[i + 1] - np - s) * (heights_[i] - heights_[i - 1]) /
                   (np - positions_[i - 1]));
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        // Linear fallback keeps markers ordered when the parabola escapes.
        const std::size_t j = d >= 1.0 ? i + 1 : i - 1;
        heights_[i] += s * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += s;
    }
  }
}

double P2Quantile::estimate() const {
  RS_REQUIRE(count_ > 0, "P2 estimate needs at least one sample");
  if (count_ < 5) {
    std::vector<double> xs(heights_.begin(),
                           heights_.begin() + static_cast<long>(count_));
    return percentile(std::move(xs), q_ * 100.0);
  }
  return heights_[2];
}

P2Quantile::State P2Quantile::state() const {
  State s;
  s.q = q_;
  s.count = count_;
  s.heights = heights_;
  s.positions = positions_;
  s.desired = desired_;
  return s;
}

P2Quantile P2Quantile::from_state(const State& s) {
  P2Quantile p(s.q);
  p.count_ = s.count;
  p.heights_ = s.heights;
  p.positions_ = s.positions;
  p.desired_ = s.desired;
  return p;
}

ReservoirSample::ReservoirSample(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed), rng_(seed) {
  RS_REQUIRE(capacity >= 1, "reservoir capacity >= 1");
  samples_.reserve(capacity);
}

std::uint64_t ReservoirSample::next_raw() {
  ++draws_;
  return rng_();
}

void ReservoirSample::add(double x) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  // One raw draw per decision; the modulo bias (~seen/2^64) is far below
  // the sketch's sampling error and buys exact state replay.
  const std::uint64_t j = next_raw() % seen_;
  if (j < capacity_) samples_[j] = x;
}

void ReservoirSample::merge(const ReservoirSample& other) {
  RS_REQUIRE(other.capacity_ == capacity_,
             "merging reservoirs of capacities " + std::to_string(capacity_) +
                 " vs " + std::to_string(other.capacity_));
  if (other.seen_ == 0) return;
  if (seen_ == 0) {
    seen_ = other.seen_;
    samples_ = other.samples_;
    return;
  }
  if (seen_ + other.seen_ <= capacity_) {
    // Union still fits: plain concatenation, still exact.
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    seen_ += other.seen_;
    return;
  }
  // Weighted draw without replacement from the two retained pools: each
  // output slot picks a pool with probability proportional to how much of
  // its stream remains unclaimed, which approximates a uniform sample of
  // the concatenated streams (exact weighting, sequential draws).
  double left_weight = static_cast<double>(seen_);
  double right_weight = static_cast<double>(other.seen_);
  std::size_t li = 0, ri = 0;
  std::vector<double> merged;
  merged.reserve(capacity_);
  while (merged.size() < capacity_ &&
         (li < samples_.size() || ri < other.samples_.size())) {
    const bool left_available = li < samples_.size();
    const bool right_available = ri < other.samples_.size();
    bool take_left = left_available;
    if (left_available && right_available) {
      const double p = left_weight / (left_weight + right_weight);
      const double u =
          static_cast<double>(next_raw() >> 11) * 0x1.0p-53;  // [0, 1)
      take_left = u < p;
    }
    if (take_left) {
      merged.push_back(samples_[li++]);
      left_weight = std::max(0.0, left_weight - 1.0);
    } else {
      merged.push_back(other.samples_[ri++]);
      right_weight = std::max(0.0, right_weight - 1.0);
    }
  }
  samples_ = std::move(merged);
  seen_ += other.seen_;
}

ReservoirSample ReservoirSample::from_state(std::size_t capacity,
                                            std::uint64_t seed,
                                            std::uint64_t seen,
                                            std::uint64_t draws,
                                            std::vector<double> samples) {
  ReservoirSample r(capacity, seed);
  RS_REQUIRE(samples.size() <= capacity,
             "reservoir state larger than its capacity");
  RS_REQUIRE(seen >= samples.size(),
             "reservoir seen count below retained sample count");
  // Any history draws at most `capacity` times per sample seen: an add
  // past capacity draws once, and a merge draws at most `capacity` times
  // while adding at least one to `seen`. The bound keeps an edited count
  // from stalling the replay below. (draws - 1) / capacity < seen is
  // draws <= seen * capacity without the overflow.
  RS_REQUIRE(draws == 0 || (draws - 1) / capacity < seen,
             "reservoir state claims " + std::to_string(draws) +
                 " draws for " + std::to_string(seen) +
                 " samples seen, more than its capacity (" +
                 std::to_string(capacity) + ") per sample");
  r.seen_ = seen;
  r.samples_ = std::move(samples);
  // Fast-forward the private stream to where `draws` decisions left it —
  // one raw output each, for adds and merges alike — so a deserialized
  // reservoir continues exactly like the original, whatever its history.
  for (std::uint64_t i = 0; i < draws; ++i) (void)r.next_raw();
  r.draws_ = draws;
  return r;
}

// ---------------------------------------------------------------------
// StakeConcentration

StakeConcentration::StakeConcentration()
    : counts_(kBuckets, 0), sums_(kBuckets, 0) {}

std::size_t StakeConcentration::bucket_of(std::int64_t stake) {
  RS_REQUIRE(stake >= 0, "stake concentration: negative stake");
  if (stake == 0) return 0;
  // Octave = floor(log2 stake); 8 linear sub-buckets per octave.
  const auto u = static_cast<std::uint64_t>(stake);
  int octave = 63;
  while (((u >> octave) & 1u) == 0) --octave;
  const std::uint64_t base = std::uint64_t{1} << octave;
  const std::uint64_t sub =
      octave >= 3 ? (u - base) >> (octave - 3) : ((u - base) << (3 - octave));
  return 1 + static_cast<std::size_t>(octave) * 8 +
         static_cast<std::size_t>(sub);
}

void StakeConcentration::add(std::int64_t stake) {
  const std::size_t b = bucket_of(stake);
  ++counts_[b];
  sums_[b] += stake;
  ++count_;
  total_ += stake;
}

void StakeConcentration::remove(std::int64_t stake) {
  const std::size_t b = bucket_of(stake);
  RS_REQUIRE(counts_[b] > 0, "stake concentration: removing from an empty bucket");
  --counts_[b];
  sums_[b] -= stake;
  --count_;
  total_ -= stake;
}

void StakeConcentration::update(std::int64_t old_stake,
                                std::int64_t new_stake) {
  if (old_stake == new_stake) return;
  remove(old_stake);
  add(new_stake);
}

double StakeConcentration::gini() const {
  if (count_ == 0 || total_ <= 0) return 0.0;
  // Gini over the quantized (grouped) distribution: groups ascend with the
  // bucket index, every member of group i counts as the group mean mu_i.
  // With ranks 1..n over the sorted stakes,
  //   G = 2 * sum_j(j * x_j) / (n * T) - (n + 1) / n,
  // and a group of n_i equal values starting after c_i others contributes
  // mu_i * (n_i * c_i + n_i * (n_i + 1) / 2) to the rank-weighted sum.
  const double n = static_cast<double>(count_);
  const double t = static_cast<double>(total_);
  double rank_weighted = 0.0;
  double before = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const double ni = static_cast<double>(counts_[b]);
    const double mu = static_cast<double>(sums_[b]) / ni;
    rank_weighted += mu * (ni * before + ni * (ni + 1.0) / 2.0);
    before += ni;
  }
  return 2.0 * rank_weighted / (n * t) - (n + 1.0) / n;
}

double StakeConcentration::top_share(double fraction) const {
  RS_REQUIRE(fraction > 0.0 && fraction <= 1.0,
             "stake concentration: fraction outside (0, 1]");
  if (count_ == 0 || total_ <= 0) return 0.0;
  auto want = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(count_)));
  if (want == 0) want = 1;
  double held = 0.0;
  for (std::size_t b = kBuckets; b-- > 0 && want > 0;) {
    if (counts_[b] == 0) continue;
    if (counts_[b] <= want) {
      held += static_cast<double>(sums_[b]);
      want -= counts_[b];
    } else {
      // Boundary bucket: take the needed holders at the bucket mean.
      held += static_cast<double>(want) * static_cast<double>(sums_[b]) /
              static_cast<double>(counts_[b]);
      want = 0;
    }
  }
  return held / static_cast<double>(total_);
}

// ---------------------------------------------------------------------
// CohortWealthCorrelation

void CohortWealthCorrelation::add(std::int64_t stake, bool in_cohort) {
  const double x = static_cast<double>(stake);
  ++count_[in_cohort ? 1 : 0];
  sum_[in_cohort ? 1 : 0] += x;
  sum_sq_ += x * x;
}

void CohortWealthCorrelation::remove(std::int64_t stake, bool in_cohort) {
  RS_REQUIRE(count_[in_cohort ? 1 : 0] > 0,
             "cohort correlation: removing from an empty cohort");
  const double x = static_cast<double>(stake);
  --count_[in_cohort ? 1 : 0];
  sum_[in_cohort ? 1 : 0] -= x;
  sum_sq_ -= x * x;
}

void CohortWealthCorrelation::update(std::int64_t old_stake,
                                     std::int64_t new_stake,
                                     bool in_cohort) {
  if (old_stake == new_stake) return;
  remove(old_stake, in_cohort);
  add(new_stake, in_cohort);
}

double CohortWealthCorrelation::correlation() const {
  const std::size_t n0 = count_[0], n1 = count_[1];
  if (n0 == 0 || n1 == 0) return 0.0;
  const double n = static_cast<double>(n0 + n1);
  const double mean0 = sum_[0] / static_cast<double>(n0);
  const double mean1 = sum_[1] / static_cast<double>(n1);
  const double mean = (sum_[0] + sum_[1]) / n;
  const double var = sum_sq_ / n - mean * mean;
  if (var <= 0.0) return 0.0;
  const double p = static_cast<double>(n1) / n;
  return (mean1 - mean0) * std::sqrt(p * (1.0 - p)) / std::sqrt(var);
}

}  // namespace roleshare::util
