#include "consensus/binary_ba.hpp"

#include <gtest/gtest.h>

#include "consensus/roles.hpp"
#include "util/rng.hpp"

namespace roleshare::consensus {
namespace {

const crypto::Hash256 kBlock = crypto::HashBuilder("block").build();
const crypto::Hash256 kEmpty = crypto::HashBuilder("empty").build();

TEST(BinaryBa, HappyPathConcludesFirstIteration) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  EXPECT_TRUE(ba.running());
  EXPECT_EQ(ba.vote_value(), kBlock);
  EXPECT_EQ(ba.step_number(), kFirstBinaryStep);
  ba.advance(kBlock);  // quorum on the block in sub-step A
  EXPECT_EQ(ba.status(), BaStatus::ConcludedBlock);
  EXPECT_EQ(ba.result(), kBlock);
  EXPECT_TRUE(ba.concluded_in_first_iteration());
  EXPECT_EQ(ba.final_vote(), kBlock);
}

TEST(BinaryBa, EmptyQuorumConcludesEmptyInSubStepB) {
  BinaryBaState ba(kEmpty, kEmpty, 11);
  ba.advance(kEmpty);  // sub-step A: quorum on empty does NOT conclude
  EXPECT_TRUE(ba.running());
  EXPECT_EQ(ba.vote_value(), kEmpty);
  ba.advance(kEmpty);  // sub-step B: quorum on empty concludes empty
  EXPECT_EQ(ba.status(), BaStatus::ConcludedEmpty);
  EXPECT_EQ(ba.result(), kEmpty);
  EXPECT_FALSE(ba.concluded_in_first_iteration());
  EXPECT_EQ(ba.final_vote(), std::nullopt);
}

TEST(BinaryBa, TimeoutsFollowDefaults) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  ba.advance(std::nullopt);  // A timeout: revert to initial
  EXPECT_EQ(ba.vote_value(), kBlock);
  ba.advance(std::nullopt);  // B timeout: vote empty
  EXPECT_EQ(ba.vote_value(), kEmpty);
  ba.advance(std::nullopt, /*coin=*/true);  // C timeout: coin -> initial
  EXPECT_EQ(ba.vote_value(), kBlock);
  EXPECT_EQ(ba.iteration(), 2u);
  EXPECT_TRUE(ba.running());
}

TEST(BinaryBa, CoinFalsePicksEmpty) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  ba.advance(std::nullopt);
  ba.advance(std::nullopt);
  ba.advance(std::nullopt, /*coin=*/false);
  EXPECT_EQ(ba.vote_value(), kEmpty);
}

TEST(BinaryBa, QuorumInSubStepCOverridesCoin) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  ba.advance(std::nullopt);
  ba.advance(std::nullopt);
  ba.advance(kBlock, /*coin=*/false);  // counted quorum wins over coin
  EXPECT_EQ(ba.vote_value(), kBlock);
}

TEST(BinaryBa, BlockQuorumInLaterIterationIsNotFinal) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  // Burn iteration 1 with timeouts.
  ba.advance(std::nullopt);
  ba.advance(std::nullopt);
  ba.advance(std::nullopt, true);
  // Iteration 2, sub-step A: block quorum concludes but not "first
  // iteration" — the node will not cast a FINAL vote.
  ba.advance(kBlock);
  EXPECT_EQ(ba.status(), BaStatus::ConcludedBlock);
  EXPECT_FALSE(ba.concluded_in_first_iteration());
  EXPECT_EQ(ba.final_vote(), std::nullopt);
  EXPECT_EQ(ba.iteration(), 2u);
}

TEST(BinaryBa, NonEmptyQuorumInSubStepBAdoptsValue) {
  BinaryBaState ba(kEmpty, kEmpty, 11);
  ba.advance(std::nullopt);  // A timeout
  ba.advance(kBlock);        // B: non-empty quorum -> adopt, keep running
  EXPECT_TRUE(ba.running());
  EXPECT_EQ(ba.vote_value(), kBlock);
}

TEST(BinaryBa, ExhaustsAfterMaxIterations) {
  BinaryBaState ba(kBlock, kEmpty, 3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ba.running());
    ba.advance(std::nullopt);
    ba.advance(std::nullopt);
    ba.advance(std::nullopt, true);
  }
  EXPECT_EQ(ba.status(), BaStatus::Exhausted);
  EXPECT_EQ(ba.final_vote(), std::nullopt);
}

TEST(BinaryBa, StepNumbersAdvanceSequentially) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  EXPECT_EQ(ba.step_number(), kFirstBinaryStep);
  ba.advance(std::nullopt);
  EXPECT_EQ(ba.step_number(), kFirstBinaryStep + 1);
  ba.advance(std::nullopt);
  EXPECT_EQ(ba.step_number(), kFirstBinaryStep + 2);
  ba.advance(std::nullopt, true);
  EXPECT_EQ(ba.step_number(), kFirstBinaryStep + 3);
}

TEST(BinaryBa, AdvanceAfterConclusionThrows) {
  BinaryBaState ba(kBlock, kEmpty, 11);
  ba.advance(kBlock);
  EXPECT_THROW(ba.advance(kBlock), std::logic_error);
}

TEST(BinaryBa, RejectsZeroIterations) {
  EXPECT_THROW(BinaryBaState(kBlock, kEmpty, 0), std::invalid_argument);
}

// Safety property across adversarial-ish schedules: two machines fed the
// same per-step counted results always conclude the same value.
class BinaryBaAgreement : public ::testing::TestWithParam<int> {};

TEST_P(BinaryBaAgreement, IdenticalViewsAgree) {
  util::Rng rng(1000 + GetParam());
  BinaryBaState a(kBlock, kEmpty, 11);
  BinaryBaState b(kBlock, kEmpty, 11);
  while (a.running() && b.running()) {
    std::optional<crypto::Hash256> counted;
    const int c = static_cast<int>(rng.uniform_int(0, 2));
    if (c == 1) counted = kBlock;
    if (c == 2) counted = kEmpty;
    const bool coin = rng.bernoulli(0.5);
    a.advance(counted, coin);
    b.advance(counted, coin);
  }
  EXPECT_EQ(a.status(), b.status());
  if (a.status() == BaStatus::ConcludedBlock) {
    EXPECT_EQ(a.result(), b.result());
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, BinaryBaAgreement,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace roleshare::consensus
