#include "util/alias_sampler.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::util {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  rebuild(weights);
}

void AliasSampler::rebuild(const std::vector<double>& weights) {
  RS_REQUIRE(!weights.empty(), "alias sampler needs weights");
  const std::size_t n = weights.size();
  double total = 0.0;
  bool all_equal = true;
  for (const double w : weights) {
    RS_REQUIRE(std::isfinite(w), "non-finite weight");
    RS_REQUIRE(w >= 0.0, "negative weight");
    total += w;
    all_equal = all_equal && w == weights.front();
  }
  RS_REQUIRE(total > 0.0, "weights sum to zero");
  RS_REQUIRE(std::isfinite(total), "weights sum to a non-finite total");

  // A bucket whose probability is 1 never reads its alias entry
  // (uniform01() < 1 always holds), so entries an earlier table left in
  // alias_ need no clearing.
  alias_.resize(n);

  // All-equal weights (single entries included): the scaled probabilities
  // are 1 by definition, but the floating-point total can land an epsilon
  // off n * w, leaving stray sub-1 buckets whose alias partner then steals
  // a ~1e-16 sliver of probability. Pin the exact uniform table instead.
  if (all_equal) {
    prob_.assign(n, 1.0);
    return;
  }

  // Scaled probabilities, kept in prob_: a bucket's entry is final once it
  // leaves the small list. work_ holds the under-full (small) list at the
  // front and the over-full (large) list at the back, each a stack pushed
  // in index order. Both loops write the candidate slots and advance by the
  // comparison instead of branching on it: the partition writes i to the
  // next slot of both lists, and the one it does not advance stays free.
  prob_.resize(n);
  work_.resize(n);
  std::uint32_t* const work = work_.data();
  std::size_t small = 0;  // work[0, small), top at small - 1
  std::size_t large = 0;  // work[n - large, n), top at n - large
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = weights[i] * static_cast<double>(n) / total;
    const bool under = prob_[i] < 1.0;
    work[small] = static_cast<std::uint32_t>(i);
    work[n - 1 - large] = static_cast<std::uint32_t>(i);
    small += under;
    large += !under;
  }
  while (small > 0 && large > 0) {
    const std::uint32_t s = work[small - 1];
    const std::uint32_t l = work[n - large];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    // l replaces s on top of the small list when its remainder drops
    // below 1; otherwise s is popped and l stays on top of the large list.
    const bool drops = prob_[l] < 1.0;
    work[small - 1] = l;
    small -= !drops;
    large -= drops;
  }
  for (std::size_t k = n - large; k < n; ++k) prob_[work[k]] = 1.0;
  for (std::size_t k = 0; k < small; ++k)
    prob_[work[k]] = 1.0;  // numeric leftovers
}

std::size_t AliasSampler::sample(Rng& rng) const {
  const std::size_t n = prob_.size();
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  return rng.uniform01() < prob_[i] ? i : alias_[i];
}

}  // namespace roleshare::util
