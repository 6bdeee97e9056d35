#include "consensus/proposal.hpp"

#include <gtest/gtest.h>

#include "consensus/roles.hpp"

namespace roleshare::consensus {
namespace {

struct ProposerSetup {
  crypto::Hash256 seed = crypto::HashBuilder("pseed").add_u64(3).build();
  crypto::SortitionParams params{2'000, 10'000};
  std::uint64_t round = 4;

  crypto::VrfInput input() const {
    return crypto::VrfInput{round, kProposerStep, seed};
  }

  /// Finds a node id whose sortition wins for this round.
  std::pair<crypto::KeyPair, crypto::SortitionResult> winning_proposer(
      std::uint64_t start_id) const {
    std::uint64_t id = start_id;
    while (true) {
      const crypto::KeyPair key = crypto::KeyPair::derive(4242, id++);
      const auto res = crypto::sortition(key, input(), 100, params);
      if (res.selected()) return {key, res};
    }
  }

  ledger::Block block_for(const crypto::PublicKey& proposer) const {
    return ledger::Block::make(round, crypto::Hash256::zero(),
                               crypto::Hash256::zero(), proposer);
  }
};

TEST(Proposal, MakeCarriesPriority) {
  const ProposerSetup s;
  const auto [key, res] = s.winning_proposer(0);
  const BlockProposal p =
      make_proposal(7, key.public_key(), s.block_for(key.public_key()), res);
  EXPECT_EQ(p.proposer, 7u);
  EXPECT_EQ(p.priority, res.priority());
  EXPECT_GT(p.priority, 0u);
}

TEST(Proposal, MakeRejectsUnselectedProposer) {
  const ProposerSetup s;
  const auto [key, res] = s.winning_proposer(0);
  crypto::SortitionResult unselected = res;
  unselected.sub_users = 0;
  EXPECT_THROW(make_proposal(7, key.public_key(),
                             s.block_for(key.public_key()), unselected),
               std::invalid_argument);
}

TEST(Proposal, VerifyAcceptsHonestProposal) {
  const ProposerSetup s;
  const auto [key, res] = s.winning_proposer(0);
  const BlockProposal p =
      make_proposal(1, key.public_key(), s.block_for(key.public_key()), res);
  EXPECT_TRUE(verify_proposal(p, s.input(), 100, s.params));
}

TEST(Proposal, VerifyRejectsWrongStake) {
  // Claiming a different stake changes the recomputed sub-user count.
  const ProposerSetup s;
  const auto [key, res] = s.winning_proposer(0);
  const BlockProposal p =
      make_proposal(1, key.public_key(), s.block_for(key.public_key()), res);
  EXPECT_FALSE(verify_proposal(p, s.input(), 10'000, s.params));
}

TEST(Proposal, VerifyRejectsInflatedPriority) {
  const ProposerSetup s;
  const auto [key, res] = s.winning_proposer(0);
  BlockProposal p =
      make_proposal(1, key.public_key(), s.block_for(key.public_key()), res);
  p.priority += 1;
  EXPECT_FALSE(verify_proposal(p, s.input(), 100, s.params));
}

TEST(Proposal, VerifyRejectsStolenProof) {
  const ProposerSetup s;
  const auto [key, res] = s.winning_proposer(0);
  const auto [thief, thief_res] = s.winning_proposer(1000);
  BlockProposal p = make_proposal(1, thief.public_key(),
                                  s.block_for(thief.public_key()), thief_res);
  p.sortition = res;  // splice someone else's proof
  p.priority = res.priority();
  EXPECT_FALSE(verify_proposal(p, s.input(), 100, s.params));
}

TEST(Proposal, SelectBestPicksHighestPriority) {
  const ProposerSetup s;
  std::vector<BlockProposal> proposals;
  std::uint64_t id = 0;
  for (int i = 0; i < 4; ++i) {
    const auto [key, res] = s.winning_proposer(id);
    id += 500;
    proposals.push_back(make_proposal(static_cast<ledger::NodeId>(i),
                                      key.public_key(),
                                      s.block_for(key.public_key()), res));
  }
  const auto best = select_best_proposal(proposals);
  ASSERT_TRUE(best.has_value());
  for (const BlockProposal& p : proposals)
    EXPECT_GE(best->priority, p.priority);
}

TEST(Proposal, SelectBestEmptyInput) {
  EXPECT_FALSE(select_best_proposal({}).has_value());
}

TEST(Proposal, SelectBestDeterministicTieBreak) {
  // Two copies of the same priority must resolve identically regardless of
  // order — ties break toward the lower block hash.
  const ProposerSetup s;
  const auto [k1, r1] = s.winning_proposer(0);
  const auto [k2, r2] = s.winning_proposer(300);
  auto p1 = make_proposal(0, k1.public_key(), s.block_for(k1.public_key()),
                          r1);
  auto p2 = make_proposal(1, k2.public_key(), s.block_for(k2.public_key()),
                          r2);
  p1.priority = p2.priority = 42;  // force the tie
  const std::vector<BlockProposal> ab = {p1, p2};
  const std::vector<BlockProposal> ba = {p2, p1};
  const auto best_ab = select_best_proposal(ab);
  const auto best_ba = select_best_proposal(ba);
  ASSERT_TRUE(best_ab.has_value());
  ASSERT_TRUE(best_ba.has_value());
  EXPECT_EQ(best_ab->block_hash(), best_ba->block_hash());
}

}  // namespace
}  // namespace roleshare::consensus
