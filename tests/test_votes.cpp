#include "consensus/votes.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace roleshare::consensus {
namespace {

struct VoterSetup {
  std::vector<crypto::KeyPair> keys;
  std::vector<std::int64_t> stakes;
  std::int64_t total = 0;
  crypto::Hash256 seed = crypto::HashBuilder("vseed").add_u64(1).build();
  std::uint64_t round = 2;
  std::uint32_t step = 1;
  crypto::SortitionParams params{0, 0};
};

// Builds voters that are guaranteed committee members by searching node ids
// until sortition selects them (deterministic, test-only).
VoterSetup make_voters(std::size_t count) {
  VoterSetup s;
  s.total = 10'000;
  s.params = crypto::SortitionParams{2'000, s.total};
  std::uint64_t id = 0;
  while (s.keys.size() < count) {
    const crypto::KeyPair key = crypto::KeyPair::derive(555, id++);
    const crypto::VrfInput input{s.round, s.step, s.seed};
    const auto res = crypto::sortition(key, input, 100, s.params);
    if (res.selected()) {
      s.keys.push_back(key);
      s.stakes.push_back(100);
    }
  }
  return s;
}

Vote vote_for(const VoterSetup& s, std::size_t idx,
              const crypto::Hash256& value) {
  const crypto::VrfInput input{s.round, s.step, s.seed};
  const auto res =
      crypto::sortition(s.keys[idx], input, s.stakes[idx], s.params);
  return make_vote(static_cast<ledger::NodeId>(idx),
                   s.keys[idx].public_key(), s.round, s.step, value, res);
}

TEST(Votes, MakeAndVerify) {
  const VoterSetup s = make_voters(3);
  const crypto::Hash256 value = crypto::HashBuilder("blk").add_u64(1).build();
  const Vote v = vote_for(s, 0, value);
  EXPECT_GT(v.weight, 0u);
  EXPECT_TRUE(verify_vote(v, s.seed, s.stakes[0], s.params));
}

TEST(Votes, VerifyRejectsWrongSeed) {
  const VoterSetup s = make_voters(1);
  const Vote v = vote_for(s, 0, crypto::Hash256::zero());
  const auto other_seed = crypto::HashBuilder("other").build();
  EXPECT_FALSE(verify_vote(v, other_seed, s.stakes[0], s.params));
}

TEST(Votes, VerifyRejectsInflatedWeight) {
  const VoterSetup s = make_voters(1);
  Vote v = vote_for(s, 0, crypto::Hash256::zero());
  v.weight += 5;  // claim more sub-users than sortition granted
  EXPECT_FALSE(verify_vote(v, s.seed, s.stakes[0], s.params));
}

TEST(VoteCounter, ReachesQuorum) {
  const VoterSetup s = make_voters(4);
  const crypto::Hash256 value = crypto::HashBuilder("blk").add_u64(2).build();
  VoteCounter counter(1.0);  // tiny quorum: any verified weight wins
  for (std::size_t i = 0; i < 4; ++i) counter.add(vote_for(s, i, value));
  const TallyResult r = counter.result();
  ASSERT_TRUE(r.winner.has_value());
  EXPECT_EQ(*r.winner, value);
  EXPECT_EQ(r.winner_weight, counter.weight_for(value));
  EXPECT_EQ(r.total_weight, counter.total_weight());
}

TEST(VoteCounter, BelowQuorumNoWinner) {
  const VoterSetup s = make_voters(2);
  const crypto::Hash256 value = crypto::HashBuilder("blk").add_u64(3).build();
  VoteCounter counter(1e9);  // unreachable quorum
  counter.add(vote_for(s, 0, value));
  counter.add(vote_for(s, 1, value));
  EXPECT_FALSE(counter.result().winner.has_value());
}

TEST(VoteCounter, DuplicateVoterCountedOnce) {
  const VoterSetup s = make_voters(1);
  const crypto::Hash256 value = crypto::HashBuilder("blk").add_u64(4).build();
  VoteCounter counter(0.5);
  const Vote v = vote_for(s, 0, value);
  EXPECT_TRUE(counter.add(v));
  EXPECT_FALSE(counter.add(v));
  EXPECT_EQ(counter.total_weight(), v.weight);
}

TEST(VoteCounter, SplitVoteHighestWins) {
  const VoterSetup s = make_voters(5);
  const crypto::Hash256 a = crypto::HashBuilder("blk").add_u64(5).build();
  const crypto::Hash256 b = crypto::HashBuilder("blk").add_u64(6).build();
  VoteCounter counter(0.5);
  std::uint64_t weight_a = 0, weight_b = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const Vote v = vote_for(s, i, i < 3 ? a : b);
    counter.add(v);
    (i < 3 ? weight_a : weight_b) += v.weight;
  }
  const TallyResult r = counter.result();
  ASSERT_TRUE(r.winner.has_value());
  EXPECT_EQ(*r.winner, weight_a >= weight_b ? a : b);
}

TEST(VoteCounter, CommonCoinIsDeterministicAndBinary) {
  const VoterSetup s = make_voters(3);
  const crypto::Hash256 value = crypto::HashBuilder("blk").add_u64(7).build();
  VoteCounter c1(0.5), c2(0.5);
  crypto::Hash256 min_coin_hash;
  for (std::size_t i = 0; i < 3; ++i) {
    const Vote v = vote_for(s, i, value);
    c1.add(v);
    c2.add(v);
    const crypto::Hash256 h = coin_hash(v.sortition.vrf.output);
    if (i == 0 || h < min_coin_hash) min_coin_hash = h;
  }
  ASSERT_TRUE(c1.common_coin().has_value());
  EXPECT_EQ(c1.common_coin(), c2.common_coin());
  EXPECT_EQ(*c1.common_coin(), (min_coin_hash.bytes().back() & 1) != 0);
}

TEST(VoteCounter, WinnerIsStrictlyAboveQuorumAndTiesGoToTheLowerHash) {
  const crypto::Hash256 a = crypto::HashBuilder("blk").add_u64(9).build();
  const crypto::Hash256 b = crypto::HashBuilder("blk").add_u64(10).build();
  const std::vector<crypto::Hash256> values = {std::max(a, b), std::min(a, b)};
  // A weight exactly at the quorum does not win.
  EXPECT_EQ(quorum_winner(std::vector<std::uint64_t>{10, 3}, values, 10.0),
            -1);
  // Equal weights above the quorum: the lower hash wins.
  EXPECT_EQ(quorum_winner(std::vector<std::uint64_t>{11, 11}, values, 10.0),
            1);
  // A heavier value beats a lower hash.
  EXPECT_EQ(quorum_winner(std::vector<std::uint64_t>{12, 11}, values, 10.0),
            0);
  EXPECT_EQ(quorum_winner({}, {}, 10.0), -1);
}

TEST(Votes, CoinHashIsTheDomainTaggedVrfHash) {
  util::Rng rng(2024);
  for (int i = 0; i < 1000; ++i) {
    const crypto::Hash256 x =
        crypto::HashBuilder("vrf").add_u64(rng()).build();
    EXPECT_EQ(coin_hash(x), crypto::HashBuilder("roleshare.coin").add(x).build());
  }
}

TEST(VoteCounter, CommonCoinEmptyWhenNoVotes) {
  VoteCounter counter(0.5);
  EXPECT_FALSE(counter.common_coin().has_value());
}

TEST(VoteCounter, RejectsNonPositiveQuorum) {
  EXPECT_THROW(VoteCounter(0.0), std::invalid_argument);
  EXPECT_THROW(VoteCounter(-1.0), std::invalid_argument);
}

TEST(Votes, TallyVotesConvenience) {
  const VoterSetup s = make_voters(3);
  const crypto::Hash256 value = crypto::HashBuilder("blk").add_u64(8).build();
  std::vector<Vote> votes;
  for (std::size_t i = 0; i < 3; ++i) votes.push_back(vote_for(s, i, value));
  const TallyResult r = tally_votes(votes, 0.5);
  ASSERT_TRUE(r.winner.has_value());
  EXPECT_EQ(*r.winner, value);
}

}  // namespace
}  // namespace roleshare::consensus
