#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/require.hpp"

namespace roleshare::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_material_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::derive_seed(std::uint64_t label) const {
  // Mix seed material and label through SplitMix64 twice so that adjacent
  // labels produce unrelated child seeds.
  std::uint64_t sm = seed_material_ ^ (0xa0761d6478bd642fULL * (label + 1));
  const std::uint64_t first = splitmix64(sm);
  const std::uint64_t second = splitmix64(sm);
  return first ^ rotl(second, 29);
}

Rng Rng::split(std::uint64_t label) const { return Rng(derive_seed(label)); }

void Rng::derive_seeds(std::span<const std::uint64_t> labels,
                       std::span<std::uint64_t> out) const {
  RS_REQUIRE(labels.size() == out.size(), "derive_seeds size mismatch");
  // Same mixing as derive_seed, with the per-call overhead (loads of
  // seed_material_, function frames) amortized over the block.
  const std::uint64_t base = seed_material_;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::uint64_t sm = base ^ (0xa0761d6478bd642fULL * (labels[i] + 1));
    const std::uint64_t first = splitmix64(sm);
    const std::uint64_t second = splitmix64(sm);
    out[i] = first ^ rotl(second, 29);
  }
}

Rng Rng::split(std::string_view label) const {
  // FNV-1a over the label, then delegate to the integer split.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return split(h);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RS_REQUIRE(lo <= hi, "uniform_int range");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = Rng::max() - Rng::max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::uniform01() {
  // 53 random bits into [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  RS_REQUIRE(lo < hi, "uniform_real range");
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1;
  do {
    u1 = uniform01();
  } while (u1 <= 0.0);
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) {
  RS_REQUIRE(sigma >= 0.0, "normal sigma");
  return mean + sigma * normal();
}

bool Rng::bernoulli(double p) {
  RS_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p");
  return uniform01() < p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  RS_REQUIRE(k <= n, "sample size exceeds population");
  // Partial Fisher–Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace roleshare::util
