#include "net/synchrony.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "crypto/hash.hpp"
#include "net/delay_model.hpp"

namespace roleshare::net {
namespace {

TEST(Synchrony, StartsStrong) {
  SynchronyController ctrl(SynchronyConfig{});
  EXPECT_EQ(ctrl.state(), SynchronyState::Strong);
  EXPECT_DOUBLE_EQ(ctrl.delay_factor(), 1.0);
}

TEST(Synchrony, ZeroProbabilityStaysStrong) {
  SynchronyController ctrl(SynchronyConfig{0.0, 4.0, 3});
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ctrl.advance_round(rng), SynchronyState::Strong);
  }
}

TEST(Synchrony, CertainDegradationIsBounded) {
  // With degrade probability 1 the controller still returns to Strong
  // within max_degraded_rounds — the weak-synchrony boundedness guarantee.
  SynchronyController ctrl(SynchronyConfig{1.0, 4.0, 3});
  util::Rng rng(2);
  int longest_degraded_run = 0, current = 0;
  for (int i = 0; i < 200; ++i) {
    if (ctrl.advance_round(rng) == SynchronyState::Degraded) {
      ++current;
      longest_degraded_run = std::max(longest_degraded_run, current);
    } else {
      current = 0;
    }
  }
  EXPECT_LE(longest_degraded_run, 3);
  EXPECT_GT(longest_degraded_run, 0);
}

TEST(Synchrony, DelayFactorAppliesWhenDegraded) {
  SynchronyController ctrl(SynchronyConfig{0.0, 5.5, 3});
  ctrl.force(SynchronyState::Degraded);
  EXPECT_DOUBLE_EQ(ctrl.delay_factor(), 5.5);
  ctrl.force(SynchronyState::Strong);
  EXPECT_DOUBLE_EQ(ctrl.delay_factor(), 1.0);
}

TEST(Synchrony, DegradeFrequencyMatchesProbability) {
  SynchronyController ctrl(SynchronyConfig{0.2, 4.0, 1});
  util::Rng rng(3);
  int degraded = 0;
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i) {
    if (ctrl.advance_round(rng) == SynchronyState::Degraded) ++degraded;
  }
  // With max run 1, state alternates; expected degraded fraction is close
  // to p/(1+p) for small p. Loose bounds suffice here.
  const double frac = static_cast<double>(degraded) / rounds;
  EXPECT_GT(frac, 0.1);
  EXPECT_LT(frac, 0.3);
}

TEST(Synchrony, RejectsBadConfig) {
  EXPECT_THROW(SynchronyController(SynchronyConfig{-0.1, 4.0, 3}),
               std::invalid_argument);
  EXPECT_THROW(SynchronyController(SynchronyConfig{0.5, 0.5, 3}),
               std::invalid_argument);
  // An infinite factor times a zero hop delay is NaN.
  EXPECT_THROW(SynchronyController(SynchronyConfig{
                   0.5, std::numeric_limits<double>::infinity(), 3}),
               std::invalid_argument);
}

TEST(DelayModels, UniformStaysInRange) {
  util::Rng rng(1);
  const UniformDelay d(20.0, 120.0);
  for (int i = 0; i < 1000; ++i) {
    const TimeMs t = d.sample(rng);
    EXPECT_GE(t, 20.0);
    EXPECT_LT(t, 120.0);
  }
}

TEST(DelayModels, UniformDegenerateRange) {
  util::Rng rng(1);
  const UniformDelay d(50.0, 50.0);
  EXPECT_DOUBLE_EQ(d.sample(rng), 50.0);
}

TEST(DelayModels, ConstantIsConstant) {
  // A zero-width range is the constant delay the tests' topologies use.
  util::Rng rng(3);
  const UniformDelay d(7.0, 7.0);
  EXPECT_EQ(d.sample(rng), 7.0);
  EXPECT_EQ(d.sample(rng), 7.0);
  EXPECT_EQ(d.max_delay(), 7.0);
}

TEST(DelayModels, RejectBadParameters) {
  EXPECT_THROW(UniformDelay(-1.0, 5.0), std::invalid_argument);
  EXPECT_THROW(UniformDelay(5.0, 1.0), std::invalid_argument);
  EXPECT_THROW(UniformDelay(-2.0, -2.0), std::invalid_argument);
}

TEST(DelayModels, RejectNonFiniteParameters) {
  // UniformDelay(lo, +inf) used to pass lo <= hi and then sample NaN
  // whenever uniform01() drew 0: (inf - lo) * 0.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(UniformDelay(0.0, inf), std::invalid_argument);
  EXPECT_THROW(UniformDelay(inf, inf), std::invalid_argument);
  EXPECT_THROW(UniformDelay(nan, 5.0), std::invalid_argument);
  EXPECT_THROW(UniformDelay(nan, nan), std::invalid_argument);
}

TEST(DelayModels, MaxDelayBoundsEverySample) {
  const UniformDelay uniform(20.0, 120.0);
  EXPECT_EQ(uniform.max_delay(), 120.0);
  util::Rng rng(9);
  for (int i = 0; i < 10'000; ++i)
    EXPECT_LE(uniform.sample(rng), uniform.max_delay());
}

TEST(UniformDelay, SamplesArePinned) {
  // SHA-256 over the bit patterns of 10,000 draws on [20, 120] ms from
  // seed 2020, recorded with the virtual delay model this type replaced.
  const UniformDelay delay(20.0, 120.0);
  util::Rng rng(2020);
  crypto::HashBuilder hash("roleshare.test.delays");
  for (int i = 0; i < 10'000; ++i)
    hash.add_u64(std::bit_cast<std::uint64_t>(delay.sample(rng)));
  EXPECT_EQ(hash.build().to_hex(),
            "9b65158a5a07f149a235ee3f0304220febb8ace7e991849e415f2980193c91c1");

  // A zero-width range draws nothing: the stream is where it was.
  util::Rng drawn(9);
  util::Rng untouched(9);
  EXPECT_EQ(UniformDelay(50.0, 50.0).sample(drawn), 50.0);
  EXPECT_EQ(drawn(), untouched());
}

}  // namespace
}  // namespace roleshare::net
