#include "crypto/sortition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/hex.hpp"
#include "util/rng.hpp"

namespace roleshare::crypto {
namespace {

TEST(BinomialInversion, ZeroStakeNeverSelected) {
  EXPECT_EQ(binomial_inversion(0.5, 0, 0.1), 0u);
}

TEST(BinomialInversion, ZeroProbabilityNeverSelected) {
  EXPECT_EQ(binomial_inversion(0.99, 100, 0.0), 0u);
}

TEST(BinomialInversion, FullProbabilitySelectsAll) {
  EXPECT_EQ(binomial_inversion(0.3, 17, 1.0), 17u);
}

TEST(BinomialInversion, MonotoneInRatio) {
  std::uint64_t prev = 0;
  for (double r = 0.0; r < 1.0; r += 0.01) {
    const std::uint64_t j = binomial_inversion(r, 50, 0.1);
    EXPECT_GE(j, prev);
    prev = j;
  }
}

TEST(BinomialInversion, NeverExceedsStake) {
  for (double r : {0.0, 0.5, 0.999999}) {
    EXPECT_LE(binomial_inversion(r, 5, 0.9), 5u);
  }
}

TEST(BinomialInversion, MatchesBinomialExpectation) {
  // Inverting the CDF at uniform ratios reproduces the binomial mean w*p.
  util::Rng rng(1);
  const std::int64_t stake = 40;
  const double p = 0.05;
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(
        binomial_inversion(rng.uniform01(), stake, p));
  EXPECT_NEAR(sum / n, static_cast<double>(stake) * p, 0.05);
}

TEST(BinomialInversion, RejectsBadArguments) {
  EXPECT_THROW(binomial_inversion(1.0, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(binomial_inversion(-0.1, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(binomial_inversion(0.5, -1, 0.5), std::invalid_argument);
  EXPECT_THROW(binomial_inversion(0.5, 5, 1.5), std::invalid_argument);
}

TEST(BinomialInversion, CertifiedDrawsAreUnselected) {
  // Whenever surely_unselected fires, the walk must return 0. The
  // adversarial ratios sit within 64 ulps of the walk's own threshold
  // pow(q, w), of the certificate's bound and of 0, for stakes up to 1e12
  // and p from 0 to 1; random draws cover the rest.
  std::size_t fired = 0;
  const auto check = [&](double ratio, std::int64_t stake, double p) {
    if (!(ratio >= 0.0 && ratio < 1.0)) return;
    if (!surely_unselected(ratio, stake, p)) return;
    ++fired;
    EXPECT_EQ(binomial_inversion(ratio, stake, p), 0u)
        << "ratio=" << ratio << " stake=" << stake << " p=" << p;
  };
  const auto ulps_around = [&](double centre, std::int64_t stake, double p) {
    double down = centre;
    double up = centre;
    for (int k = 0; k < 64; ++k) {
      check(down, stake, p);
      check(up, stake, p);
      down = std::nextafter(down, -1.0);
      up = std::nextafter(up, 2.0);
    }
  };
  for (const std::int64_t stake :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}, std::int64_t{50},
        std::int64_t{1000}, std::int64_t{123'457}, std::int64_t{1} << 40,
        std::int64_t{1'000'000'000'000}}) {
    for (const double p : {0.0, 1e-12, 1e-9, 1e-6, 40.0 / 25'500.0, 0.01,
                           0.3, 0.5, 0.51, 1.0}) {
      const double q = 1.0 - p;
      const double w = static_cast<double>(stake);
      const double threshold = std::pow(q, w);
      const double bound = (1.0 - w * (1.0 - q)) - 0x1.0p-40;
      ulps_around(std::nextafter(threshold, 0.0), stake, p);
      ulps_around(bound, stake, p);
      ulps_around(0.0, stake, p);
      ulps_around(threshold * 0.5, stake, p);
    }
  }
  util::Rng rng(0xce27);
  for (int i = 0; i < 100'000; ++i) {
    const double ratio = rng.uniform01();
    const auto stake = static_cast<std::int64_t>(
        std::exp2(rng.uniform_real(0.0, 40.0)));
    const double p = std::exp2(-rng.uniform_real(0.0, 40.0));
    check(ratio, stake, p);
  }
  EXPECT_GT(fired, 0u);

  // What the certificate must refuse: no stake, no probability, q < 0.5
  // and ratios that are not numbers.
  EXPECT_FALSE(surely_unselected(0.0, 0, 0.1));
  EXPECT_FALSE(surely_unselected(0.0, 5, 0.0));
  EXPECT_FALSE(surely_unselected(0.0, 1, 0.51));
  EXPECT_FALSE(surely_unselected(0.0, 1, 1.0));
  EXPECT_FALSE(surely_unselected(
      std::numeric_limits<double>::quiet_NaN(), 1, 0.1));

  // At Fig 3's parameters (stakes 1–50 Algos, W about 25,500,
  // tau = 10 / 40 / 80) it settles at least 99 % of the unselected
  // draws, so the batch kernel rarely reaches std::pow.
  for (const double tau : {10.0, 40.0, 80.0}) {
    const double p = tau / 25'500.0;
    std::size_t unselected = 0;
    std::size_t certified = 0;
    for (int i = 0; i < 100'000; ++i) {
      const double ratio = rng.uniform01();
      const std::int64_t stake = rng.uniform_int(1, 50);
      const bool sure = surely_unselected(ratio, stake, p);
      if (binomial_inversion(ratio, stake, p) == 0) {
        ++unselected;
        if (sure) ++certified;
      } else {
        EXPECT_FALSE(sure) << "ratio=" << ratio << " stake=" << stake;
      }
    }
    EXPECT_GE(static_cast<double>(certified),
              0.99 * static_cast<double>(unselected))
        << "tau=" << tau;
  }
}

TEST(Sortition, ProofVerifies) {
  const KeyPair key = KeyPair::derive(3, 0);
  const VrfInput input{5, 1, HashBuilder("s").add_u64(1).build()};
  const SortitionParams params{100, 1000};
  const SortitionResult res = sortition(key, input, 500, params);
  EXPECT_EQ(verify_sortition(key.public_key(), input, res.vrf, 500, params),
            res.sub_users);
}

TEST(Sortition, ForgedProofYieldsZero) {
  const KeyPair key = KeyPair::derive(3, 0);
  const KeyPair other = KeyPair::derive(3, 1);
  const VrfInput input{5, 1, HashBuilder("s").add_u64(1).build()};
  const SortitionParams params{100, 1000};
  const SortitionResult res = sortition(key, input, 500, params);
  EXPECT_EQ(verify_sortition(other.public_key(), input, res.vrf, 500, params),
            0u);
}

TEST(Sortition, ExpectedSelectedStakeMatchesTau) {
  // Across many nodes, the sum of selected sub-users concentrates on tau.
  const std::int64_t node_stake = 20;
  const std::size_t nodes = 500;
  const std::int64_t total = node_stake * static_cast<std::int64_t>(nodes);
  const std::uint64_t tau = 1000;
  const SortitionParams params{tau, total};

  double grand_total = 0;
  const int rounds = 40;
  for (int r = 0; r < rounds; ++r) {
    const VrfInput input{static_cast<std::uint64_t>(r), 1,
                         HashBuilder("seed").add_u64(r).build()};
    std::uint64_t selected = 0;
    for (std::size_t v = 0; v < nodes; ++v) {
      const KeyPair key = KeyPair::derive(9, v);
      selected += sortition(key, input, node_stake, params).sub_users;
    }
    grand_total += static_cast<double>(selected);
  }
  const double mean_selected = grand_total / rounds;
  EXPECT_NEAR(mean_selected, static_cast<double>(tau), 40.0);
}

TEST(Sortition, ZeroStakeNodeNeverSelected) {
  const KeyPair key = KeyPair::derive(3, 0);
  const VrfInput input{5, 1, Hash256::zero()};
  const SortitionParams params{100, 1000};
  EXPECT_EQ(sortition(key, input, 0, params).sub_users, 0u);
}

TEST(Sortition, SelectionMonotoneInStake) {
  // For a fixed VRF ratio, more stake can only mean more sub-users.
  // Verified via the inversion function directly.
  for (const double ratio : {0.1, 0.4, 0.7, 0.95}) {
    std::uint64_t prev = 0;
    for (std::int64_t stake = 1; stake <= 256; stake *= 2) {
      const std::uint64_t j = binomial_inversion(ratio, stake, 0.02);
      EXPECT_GE(j, prev) << "ratio=" << ratio << " stake=" << stake;
      prev = j;
    }
  }
}

TEST(Sortition, PriorityZeroWhenNotSelected) {
  SortitionResult res;
  res.sub_users = 0;
  EXPECT_EQ(res.priority(), 0u);
}

TEST(Sortition, PriorityNondecreasingInSubUsers) {
  // Priority is a max over per-sub-user hashes, so more sub-users can only
  // raise it.
  const KeyPair key = KeyPair::derive(4, 0);
  const VrfInput input{1, 0, Hash256::zero()};
  const VrfOutput vrf = vrf_evaluate(key, input);
  std::uint64_t prev = 0;
  for (std::uint64_t j = 1; j <= 8; ++j) {
    SortitionResult res{j, vrf};
    EXPECT_GE(res.priority(), prev);
    prev = res.priority();
  }
}

TEST(Sortition, RejectsBadParams) {
  const KeyPair key = KeyPair::derive(3, 0);
  const VrfInput input{5, 1, Hash256::zero()};
  EXPECT_THROW(sortition(key, input, 10, SortitionParams{0, 100}),
               std::invalid_argument);
  EXPECT_THROW(sortition(key, input, 10, SortitionParams{10, 0}),
               std::invalid_argument);
  EXPECT_THROW(sortition(key, input, 200, SortitionParams{10, 100}),
               std::invalid_argument);
}

/// SHA-256 over every draw's (sub_users, proof, output), in node order.
void hash_draws(Sha256& ctx, const std::vector<SortitionResult>& draws) {
  for (const SortitionResult& r : draws) {
    ctx.update_u64(r.sub_users);
    ctx.update(r.vrf.proof.value.span());
    ctx.update(r.vrf.output.span());
  }
}

TEST(Sortition, BatchOutputIsPinned) {
  // Every byte the batch writes, over 1001 keys (an odd count, so the
  // last node runs on one lane) and four batches: random stakes with
  // zeros at tau = 40, the same at p > 0.5 and at tau >= W (p = 1), and
  // one node holding the whole total. Recorded with the per-node kernel
  // that hashed four blocks a node, before the signer table.
  constexpr std::size_t kNodes = 1001;
  std::vector<KeyPair> keys;
  for (std::uint64_t v = 0; v < kNodes; ++v)
    keys.push_back(KeyPair::derive(77, v));
  const SignerTable signers(keys);
  util::Rng rng(0x5017);
  std::vector<std::int64_t> stakes(kNodes);
  for (std::int64_t& s : stakes) s = rng.uniform_int(0, 60);
  stakes[3] = 0;
  std::int64_t total = 0;
  for (const std::int64_t s : stakes) total += s;
  std::vector<std::int64_t> whole(kNodes, 0);
  whole[500] = total;
  const auto w = static_cast<std::uint64_t>(total);
  const Hash256 seed = HashBuilder("pin").add_u64(1).build();
  struct Batch {
    const std::vector<std::int64_t>* stakes;
    std::uint64_t tau;
  };
  const Batch batches[] = {
      {&stakes, 40}, {&stakes, w * 7 / 10}, {&stakes, w + 7}, {&whole, 40}};

  Sha256 ctx;
  std::vector<SortitionResult> draws;
  std::uint64_t step = 1;
  for (const Batch& b : batches) {
    sortition_batch_into(signers, VrfInput{12, step++, seed}, *b.stakes,
                         SortitionParams{b.tau, total}, draws);
    hash_draws(ctx, draws);
  }
  EXPECT_EQ(util::to_hex(ctx.finalize()),
            "9eb41ee608a8cd75a759ffadd122715a0d7ad6914e264040022a4276b94b47fe");
}

TEST(Sortition, TableBatchMatchesPerNodeSortition) {
  // Random keys, stakes and tau (p = 1 and p > 0.5 included), serially
  // and on four workers, against per-node sortition() field by field.
  // The sizes give one node, a lone pair, an odd pair-plus-one, and
  // several 256-node chunks whose last one is odd.
  util::Rng rng(0x7ab1e);
  util::ThreadPool pool(4);
  const util::InnerExecutor executors[] = {util::InnerExecutor(),
                                           util::InnerExecutor(&pool)};
  int mismatches = 0;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{257},
        std::size_t{1001}}) {
    const auto key_seed = static_cast<std::uint64_t>(rng());
    std::vector<KeyPair> keys;
    for (std::size_t v = 0; v < n; ++v)
      keys.push_back(KeyPair::derive(key_seed, v));
    const SignerTable signers(keys);
    std::vector<std::int64_t> stakes(n);
    std::int64_t total = 0;
    for (std::int64_t& s : stakes) {
      s = rng.uniform_int(0, 80);
      total += s;
    }
    if (total == 0) stakes[0] = total = 1;
    const auto w = static_cast<std::uint64_t>(total);
    for (const std::uint64_t tau :
         {static_cast<std::uint64_t>(rng.uniform_int(1, 60)), w * 3 / 4 + 1,
          w, w + 9}) {
      const VrfInput input{
          static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000)),
          static_cast<std::uint64_t>(rng.uniform_int(0, 40)),
          HashBuilder("table").add_u64(rng()).build()};
      const SortitionParams params{tau, total};
      for (const util::InnerExecutor& exec : executors) {
        std::vector<SortitionResult> draws;
        sortition_batch_into(signers, input, stakes, params, draws, exec);
        ASSERT_EQ(draws.size(), n);
        for (std::size_t v = 0; v < n; ++v) {
          const SortitionResult ref =
              sortition(keys[v], input, stakes[v], params);
          if ((draws[v].sub_users != ref.sub_users ||
               draws[v].vrf.proof != ref.vrf.proof ||
               draws[v].vrf.output != ref.vrf.output) &&
              ++mismatches <= 3)
            ADD_FAILURE() << "n=" << n << " tau=" << tau << " node " << v;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Parameterized: selection frequency tracks stake share across stake sizes.
class SortitionStakeSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SortitionStakeSweep, SelectionRateTracksStake) {
  const std::int64_t stake = GetParam();
  const std::int64_t total = 10'000;
  const std::uint64_t tau = 500;
  const SortitionParams params{tau, total};
  const KeyPair key = KeyPair::derive(11, 0);

  double selected = 0;
  const int rounds = 3000;
  for (int r = 0; r < rounds; ++r) {
    const VrfInput input{static_cast<std::uint64_t>(r), 2,
                         HashBuilder("x").add_u64(r).build()};
    selected +=
        static_cast<double>(sortition(key, input, stake, params).sub_users);
  }
  const double expected = static_cast<double>(stake) *
                          static_cast<double>(tau) /
                          static_cast<double>(total);
  EXPECT_NEAR(selected / rounds, expected, expected * 0.25 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Stakes, SortitionStakeSweep,
                         ::testing::Values(1, 5, 20, 100, 400));

}  // namespace
}  // namespace roleshare::crypto
