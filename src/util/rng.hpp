// Deterministic, splittable pseudo-random number generation.
//
// All randomness in RoleShare flows from a single 64-bit experiment seed
// through Rng streams. Rng::split(label) derives an independent child stream
// deterministically, so per-node / per-round randomness does not depend on
// the order in which other components consume the parent stream. This is the
// foundation of reproducible experiments (see DESIGN.md §4).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace roleshare::util {

/// xoshiro256** generator seeded via SplitMix64. Satisfies
/// UniformRandomBitGenerator so it can drive <random> distributions too.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the stream from a single 64-bit seed (SplitMix64 expansion).
  explicit Rng(std::uint64_t seed = 0);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 raw bits.
  result_type operator()();

  /// Derives an independent child stream from this stream's seed material
  /// and a label. Does not advance this stream.
  [[nodiscard]] Rng split(std::uint64_t label) const;
  [[nodiscard]] Rng split(std::string_view label) const;

  /// Seed material split(label) seeds its child stream from. Exposed for
  /// components that take a scalar seed and build their own stream from it
  /// (e.g. NetworkConfig): Rng(parent.derive_seed(k)) == parent.split(k).
  [[nodiscard]] std::uint64_t derive_seed(std::uint64_t label) const;

  /// Chunked stream derivation: child seeds for a whole block of labels
  /// in one call — out[i] = derive_seed(labels[i]), bit-identical to the
  /// per-label calls. Hot loops that need one independent stream per item
  /// (e.g. per-(step, origin) gossip delays) derive a block of seeds up
  /// front and construct each Rng directly from its seed, instead of
  /// paying two full split() constructions inside the loop.
  /// Requires labels.size() == out.size().
  void derive_seeds(std::span<const std::uint64_t> labels,
                    std::span<std::uint64_t> out) const;

  /// The seed this stream was constructed from.
  std::uint64_t seed_material() const { return seed_material_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Standard normal deviate (Box–Muller, cached pair).
  double normal();

  /// Normal deviate with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  /// Requires k <= n. O(n) time, O(n) scratch.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_material_ = 0;  // retained for split()
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// SplitMix64 step — exposed because crypto/vrf reuse it for mixing labels.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace roleshare::util
