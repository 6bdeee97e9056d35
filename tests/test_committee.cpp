#include "consensus/committee.hpp"

#include <gtest/gtest.h>

namespace roleshare::consensus {
namespace {

struct Population {
  std::vector<crypto::KeyPair> keys;
  std::vector<std::int64_t> stakes;
  std::int64_t total = 0;
};

Population make_population(std::size_t n, std::int64_t stake_each,
                           std::uint64_t seed = 1) {
  Population p;
  for (std::size_t v = 0; v < n; ++v) {
    p.keys.push_back(crypto::KeyPair::derive(seed, v));
    p.stakes.push_back(stake_each);
    p.total += stake_each;
  }
  return p;
}

/// elect_committee_into a fresh committee.
Committee elect(const Population& p, std::uint64_t round, std::uint32_t step,
                const crypto::Hash256& seed, std::uint64_t tau) {
  Committee committee;
  std::vector<crypto::SortitionResult> draws;
  elect_committee_into(p.keys, p.stakes, round, step, seed, tau, p.total,
                       committee, draws);
  return committee;
}

TEST(Committee, ExpectedTotalWeightNearTau) {
  const Population p = make_population(400, 25);
  const std::uint64_t tau = 1000;
  double sum = 0;
  const int rounds = 30;
  for (int r = 0; r < rounds; ++r) {
    const auto seed = crypto::HashBuilder("cseed").add_u64(r).build();
    const Committee c = elect(p, r, 1, seed, tau);
    sum += static_cast<double>(c.total_weight());
  }
  EXPECT_NEAR(sum / rounds, static_cast<double>(tau), 60.0);
}

TEST(Committee, MembersHavePositiveWeightAndValidProofs) {
  const Population p = make_population(100, 50);
  const auto seed = crypto::HashBuilder("cseed").add_u64(7).build();
  const Committee c = elect(p, 3, 2, seed, 500);
  const crypto::VrfInput input{3, 2, seed};
  const crypto::SortitionParams params{500, p.total};
  for (const CommitteeMember& m : c.members) {
    EXPECT_GT(m.weight, 0u);
    EXPECT_EQ(crypto::verify_sortition(p.keys[m.node].public_key(), input,
                                       m.sortition.vrf, p.stakes[m.node],
                                       params),
              m.weight);
  }
}

TEST(Committee, DifferentStepsDifferentCommittees) {
  const Population p = make_population(300, 25);
  const auto seed = crypto::HashBuilder("cseed").add_u64(1).build();
  const Committee a = elect(p, 1, 1, seed, 800);
  const Committee b = elect(p, 1, 2, seed, 800);
  ASSERT_FALSE(a.members.empty());
  ASSERT_FALSE(b.members.empty());
  // Committees are re-drawn per step; identical membership is vanishingly
  // unlikely.
  bool identical = a.members.size() == b.members.size();
  if (identical) {
    for (std::size_t i = 0; i < a.members.size(); ++i)
      if (a.members[i].node != b.members[i].node) identical = false;
  }
  EXPECT_FALSE(identical);
}

TEST(Committee, DeterministicForSameInputs) {
  const Population p = make_population(100, 30);
  const auto seed = crypto::HashBuilder("cseed").add_u64(2).build();
  const Committee a = elect(p, 5, 3, seed, 400);
  const Committee b = elect(p, 5, 3, seed, 400);
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    EXPECT_EQ(a.members[i].node, b.members[i].node);
    EXPECT_EQ(a.members[i].weight, b.members[i].weight);
  }
}

TEST(Committee, ZeroStakeNodesNeverElected) {
  Population p = make_population(50, 20);
  p.stakes[7] = 0;
  p.stakes[8] = 0;
  p.total -= 40;
  const auto seed = crypto::HashBuilder("cseed").add_u64(3).build();
  for (int r = 0; r < 20; ++r) {
    const Committee c = elect(p, r, 1, seed, 300);
    EXPECT_FALSE(c.contains(7));
    EXPECT_FALSE(c.contains(8));
  }
}

TEST(Committee, FindAndContains) {
  const Population p = make_population(60, 40);
  const auto seed = crypto::HashBuilder("cseed").add_u64(4).build();
  const Committee c = elect(p, 1, 1, seed, 1200);
  ASSERT_FALSE(c.members.empty());
  const CommitteeMember& first = c.members.front();
  EXPECT_TRUE(c.contains(first.node));
  ASSERT_NE(c.find(first.node), nullptr);
  EXPECT_EQ(c.find(first.node)->weight, first.weight);
}

TEST(Committee, HigherStakeElectedMoreOften) {
  Population p = make_population(100, 10);
  p.stakes[0] = 200;  // whale
  p.total += 190;
  int whale = 0, minnow = 0;
  for (int r = 0; r < 200; ++r) {
    const auto seed = crypto::HashBuilder("cseed").add_u64(100 + r).build();
    const Committee c = elect(p, r, 1, seed, 50);
    if (c.contains(0)) ++whale;
    if (c.contains(1)) ++minnow;
  }
  EXPECT_GT(whale, minnow * 2);
}

TEST(Committee, SizeMismatchRejected) {
  const Population p = make_population(10, 5);
  std::vector<std::int64_t> short_stakes(5, 5);
  Committee committee;
  std::vector<crypto::SortitionResult> draws;
  EXPECT_THROW(elect_committee_into(p.keys, short_stakes, 1, 1,
                                    crypto::Hash256::zero(), 10, 50,
                                    committee, draws),
               std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::consensus
