// Constant-memory statistical sketches for the streaming accumulator
// backend (sim/aggregators.hpp).
//
// The paper's figures are reductions (20%-trimmed mean / percentiles,
// §III-C) over Monte-Carlo runs. The exact backend stores every sample —
// O(runs) per round — which caps paper-scale sweeps by memory. These
// sketches keep per-round state independent of the run count:
//
//   P2Quantile      — Jain & Chlamtac's P² marker algorithm: one quantile
//                     estimate from five markers, no sample storage.
//   ReservoirSample — uniform fixed-capacity sample (Algorithm R) on a
//                     deterministic stream; exact while the sample still
//                     fits, an unbiased subsample after. Mergeable, so
//                     shard partials can fold (P² cannot merge — see the
//                     streaming RoundAccumulator for how the two
//                     compose).
//
// Error bound (tested in test_streaming_stats.cpp): with capacity K and
// n > K samples, a reservoir quantile/trimmed-mean estimate has standard
// error ~ sqrt(p(1-p)/K) in rank space — capacity 256 keeps figure-scale
// series within a few percent of exact. Everything here is deterministic:
// the same insertion (and merge) sequence reproduces the same state bit
// for bit, preserving the experiment engine's reproducibility contract.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace roleshare::util {

/// P² (piecewise-parabolic) single-quantile estimator
/// [Jain & Chlamtac, CACM 1985]. Tracks quantile q in (0, 1) with five
/// markers; exact until five observations arrive, then O(1) per sample.
class P2Quantile {
 public:
  /// q in (0, 1) — e.g. 0.5 for the median.
  explicit P2Quantile(double q);

  void add(double x);
  std::size_t count() const { return count_; }

  /// Current estimate. Exact for fewer than six observations; requires at
  /// least one.
  double estimate() const;

  double quantile() const { return q_; }

  /// Raw marker state, exposed for serialization (sim shard partials).
  struct State {
    double q = 0.5;
    std::size_t count = 0;
    std::array<double, 5> heights{};    // marker values
    std::array<double, 5> positions{};  // actual marker positions (1-based)
    std::array<double, 5> desired{};    // desired marker positions
  };
  State state() const;
  static P2Quantile from_state(const State& s);

 private:
  double q_;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
};

/// Fixed-capacity uniform random sample of a stream (Vitter's
/// Algorithm R) on a deterministic private Rng stream. While the stream
/// still fits (`exact()`), the reservoir IS the stream and every derived
/// statistic is exact; beyond that it is an unbiased subsample.
///
/// Every probabilistic decision (replacement index, merge source pick)
/// consumes exactly ONE raw 64-bit draw from the private stream, and the
/// draw count is part of the serializable state — so `from_state` can
/// fast-forward the stream and reproduce a reservoir with ANY history
/// (adds, merges, round-trips) exactly.
class ReservoirSample {
 public:
  /// capacity >= 1; `seed` fixes the private replacement stream, so two
  /// reservoirs fed the same sequence are bit-identical.
  ReservoirSample(std::size_t capacity, std::uint64_t seed);

  void add(double x);

  std::size_t capacity() const { return capacity_; }
  /// Total samples offered (not retained) so far.
  std::size_t seen() const { return seen_; }
  /// True while every offered sample is still retained.
  bool exact() const { return seen_ <= capacity_; }
  const std::vector<double>& samples() const { return samples_; }

  /// Folds `other` in so the result is (approximately) a uniform sample
  /// of the concatenated streams, weighted by the two `seen()` counts.
  /// Exact concatenation while the union still fits the capacity.
  /// Deterministic: consumes this reservoir's private stream.
  void merge(const ReservoirSample& other);

  /// Serialization hooks for shard partials: capacity, seed, seen/draw
  /// counts and the retained samples reproduce the state exactly.
  /// from_state refuses more than `capacity` draws per sample seen, a
  /// count no history reaches, before it replays them.
  std::uint64_t seed_material() const { return seed_; }
  /// Raw draws consumed from the private stream so far.
  std::uint64_t draws() const { return draws_; }
  static ReservoirSample from_state(std::size_t capacity, std::uint64_t seed,
                                    std::uint64_t seen, std::uint64_t draws,
                                    std::vector<double> samples);

 private:
  /// The single entry point to the private stream — keeps draws_ in
  /// lockstep so from_state can replay by discarding draws_ outputs.
  std::uint64_t next_raw();

  std::size_t capacity_;
  std::uint64_t seed_;
  std::uint64_t seen_ = 0;
  std::uint64_t draws_ = 0;
  std::vector<double> samples_;
  Rng rng_;
};

/// Streaming wealth-concentration sketch over a drifting integer stake
/// distribution (the long-horizon economy series — DESIGN.md §10).
///
/// Stakes live in a fixed log-bucketed histogram: bucket 0 holds stake 0,
/// and every octave [2^k, 2^(k+1)) is split into 8 linear sub-buckets, so
/// a bucket spans at most 12.5% of its lower edge. Each bucket keeps a
/// count and an exact integer stake sum, which makes every mutation O(1)
/// and every query O(buckets), independent of population size — the only
/// cost profile a per-round metric inside an O(committee) round path can
/// afford.
///
/// gini() and top_share() are computed on the *quantized* distribution
/// (every stake in a bucket treated as the bucket mean). That is exact
/// whenever a bucket holds equal stakes and otherwise biased by less than
/// the bucket width (< 12.5% of stake value, far less in rank space);
/// test_streaming_stats.cpp bounds the error against exact references.
class StakeConcentration {
 public:
  StakeConcentration();

  /// Number of histogram buckets (bucket 0 + 8 per octave of int64 range).
  static constexpr std::size_t kBuckets = 1 + 8 * 63;

  void add(std::int64_t stake);
  void remove(std::int64_t stake);
  /// remove(old) + add(new) — the per-payout delta path.
  void update(std::int64_t old_stake, std::int64_t new_stake);

  std::size_t count() const { return count_; }
  std::int64_t total() const { return total_; }

  /// Gini coefficient of the quantized distribution in [0, 1); 0 when
  /// empty or when all stake is zero.
  double gini() const;

  /// Share of total stake held by the richest ceil(fraction * count)
  /// holders, fraction in (0, 1]; 0 when empty or all-zero.
  double top_share(double fraction) const;

 private:
  static std::size_t bucket_of(std::int64_t stake);

  std::vector<std::size_t> counts_;
  std::vector<std::int64_t> sums_;
  std::size_t count_ = 0;
  std::int64_t total_ = 0;
};

/// Streaming point-biserial correlation between a fixed binary cohort
/// label (defector / non-defector) and wealth. Keeps per-cohort count,
/// stake sum and a global sum of squares, all updated in O(1) per stake
/// delta. Sums of squares are doubles: exact while stake^2 < 2^53 (every
/// workload here — long-horizon stakes are tens to thousands of Algos),
/// documented rounding beyond.
class CohortWealthCorrelation {
 public:
  void add(std::int64_t stake, bool in_cohort);
  void remove(std::int64_t stake, bool in_cohort);
  void update(std::int64_t old_stake, std::int64_t new_stake,
              bool in_cohort);

  std::size_t count() const { return count_[0] + count_[1]; }
  std::size_t cohort_count() const { return count_[1]; }

  /// Point-biserial correlation in [-1, 1]: negative when the cohort is
  /// poorer than the rest. 0 when either cohort is empty or wealth has
  /// zero variance.
  double correlation() const;

 private:
  std::size_t count_[2] = {0, 0};
  double sum_[2] = {0.0, 0.0};
  double sum_sq_ = 0.0;
};

}  // namespace roleshare::util
