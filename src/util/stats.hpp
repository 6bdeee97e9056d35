// Statistical aggregation used by the experiment runner.
//
// The paper reports 20%-trimmed means over 100 simulation runs (§III-C);
// `trimmed_mean` implements exactly that: drop the top and bottom
// `trim_fraction` of the sorted sample and average the rest.
#pragma once

#include <cstddef>
#include <vector>

namespace roleshare::util {

/// Arithmetic mean; 0 for an empty sample (callers that must distinguish
/// "no samples" from a true zero guard before calling — see
/// sim::RoundAccumulator's empty-round semantics).
double mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double stddev(const std::vector<double>& xs);

/// Mean after discarding the lowest and highest trim_fraction of samples.
/// trim_fraction in [0, 0.5); the sample must be non-empty. The paper
/// uses 0.2.
double trimmed_mean(std::vector<double> xs, double trim_fraction);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);

double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// Convenience bundle for benchmark output rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

Summary summarize(const std::vector<double>& xs);

/// Streaming mean/variance accumulator (Welford). Useful when per-sample
/// storage is too large, e.g. 500k-node stake sweeps. Mergeable (Chan et
/// al. pairwise combine), so per-shard partials fold exactly.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // sample variance, 0 for n < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Folds `other` in as if its samples had been added here too. count,
  /// min and max combine exactly; mean and variance combine by the Chan
  /// et al. update — algebraically exact, though not bit-identical to
  /// having added the samples one by one.
  void merge(const RunningStats& other);

  /// Raw second moment (sum of squared deviations) — with count/mean/
  /// min/max this is the full serializable state (shard partials).
  double m2() const { return m2_; }
  static RunningStats from_state(std::size_t n, double mean, double m2,
                                 double min, double max);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace roleshare::util
