#include "sim/behavior.hpp"

#include <gtest/gtest.h>

namespace roleshare::sim {
namespace {

using game::Strategy;

TEST(Behavior, HonestAlwaysCooperates) {
  util::Rng rng(1);
  const SelfishContext broke{0.0, 0.0, 0.0, 1};  // zero rewards observed
  EXPECT_EQ(choose_strategy(BehaviorType::Honest, econ::CostModel{}, broke,
                            rng),
            Strategy::Cooperate);
}

TEST(Behavior, ScriptedDefectorAlwaysDefects) {
  util::Rng rng(1);
  const SelfishContext rich{1e9, 0.5, 0.5, 100};
  EXPECT_EQ(choose_strategy(BehaviorType::ScriptedDefect, econ::CostModel{},
                            rich, rng),
            Strategy::Defect);
}

TEST(Behavior, FaultyIsOffline) {
  util::Rng rng(1);
  EXPECT_EQ(choose_strategy(BehaviorType::Faulty, econ::CostModel{},
                            SelfishContext{}, rng),
            Strategy::Offline);
}

TEST(Behavior, MaliciousMixesBothStrategies) {
  util::Rng rng(2);
  bool saw_c = false, saw_d = false;
  for (int i = 0; i < 100; ++i) {
    const Strategy s = choose_strategy(BehaviorType::Malicious,
                                       econ::CostModel{}, SelfishContext{},
                                       rng);
    saw_c = saw_c || s == Strategy::Cooperate;
    saw_d = saw_d || s == Strategy::Defect;
  }
  EXPECT_TRUE(saw_c);
  EXPECT_TRUE(saw_d);
}

TEST(Behavior, SelfishDefectsWhenRewardBelowCost) {
  util::Rng rng(3);
  // Expected extra cost of cooperation >= c_K - c_so = 1 µAlgo; reward 0.
  const SelfishContext ctx{0.0, 0.01, 0.1, 10};
  EXPECT_EQ(choose_strategy(BehaviorType::Selfish, econ::CostModel{}, ctx,
                            rng),
            Strategy::Defect);
}

TEST(Behavior, SelfishCooperatesWhenRewardExceedsCost) {
  util::Rng rng(3);
  // Observed rate 5 µAlgos per stake unit on stake 10 = 50 µAlgos at stake;
  // expected extra cooperation cost is ~1-2 µAlgos.
  const SelfishContext ctx{5.0, 0.01, 0.1, 10};
  EXPECT_EQ(choose_strategy(BehaviorType::Selfish, econ::CostModel{}, ctx,
                            rng),
            Strategy::Cooperate);
}

TEST(Behavior, SelfishThresholdScalesWithElectionOdds) {
  util::Rng rng(4);
  // With certain leadership the extra cost is c_L - c_so = 11; a reward at
  // stake of 5 no longer suffices.
  const SelfishContext likely_leader{0.5, 1.0, 1.0, 10};
  EXPECT_EQ(choose_strategy(BehaviorType::Selfish, econ::CostModel{},
                            likely_leader, rng),
            Strategy::Defect);
  // The same observed rate with a big enough stake flips the decision.
  const SelfishContext whale{0.5, 1.0, 1.0, 100};
  EXPECT_EQ(choose_strategy(BehaviorType::Selfish, econ::CostModel{}, whale,
                            rng),
            Strategy::Cooperate);
}

// The cheap tau * s / W upper estimates both the network and the
// scenario policy feed the selfish rule.
TEST(Behavior, ElectionOddsAreCappedUpperEstimates) {
  SelfishContext ctx;
  ctx.stake = 10;
  set_election_odds(ctx, 1'000);
  EXPECT_DOUBLE_EQ(ctx.p_leader, 0.26);  // 26 * 10 / 1000
  EXPECT_EQ(ctx.p_committee, 1.0);       // 13,000 * 10 / 1000, capped
  SelfishContext nothing_staked;
  nothing_staked.stake = 10;
  set_election_odds(nothing_staked, 0);
  EXPECT_EQ(nothing_staked.p_leader, 0.0);
  EXPECT_EQ(nothing_staked.p_committee, 0.0);
}

TEST(Behavior, Names) {
  EXPECT_EQ(to_string(BehaviorType::Honest), "honest");
  EXPECT_EQ(to_string(BehaviorType::Selfish), "selfish");
  EXPECT_EQ(to_string(BehaviorType::ScriptedDefect), "scripted-defect");
  EXPECT_EQ(to_string(BehaviorType::Malicious), "malicious");
  EXPECT_EQ(to_string(BehaviorType::Faulty), "faulty");
}

}  // namespace
}  // namespace roleshare::sim
