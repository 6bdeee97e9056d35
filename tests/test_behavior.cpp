#include "sim/behavior.hpp"

#include <gtest/gtest.h>

namespace roleshare::sim {
namespace {

using game::Strategy;

TEST(Behavior, HonestAlwaysCooperates) {
  util::Rng rng(1);
  EXPECT_EQ(choose_strategy(BehaviorType::Honest, 1.0, rng),
            Strategy::Cooperate);
}

TEST(Behavior, ScriptedDefectorAlwaysDefects) {
  util::Rng rng(1);
  EXPECT_EQ(choose_strategy(BehaviorType::ScriptedDefect, 0.0, rng),
            Strategy::Defect);
}

TEST(Behavior, FaultyIsOffline) {
  util::Rng rng(1);
  EXPECT_EQ(choose_strategy(BehaviorType::Faulty, 0.0, rng),
            Strategy::Offline);
}

TEST(Behavior, Names) {
  EXPECT_EQ(to_string(BehaviorType::Honest), "honest");
  EXPECT_EQ(to_string(BehaviorType::ScriptedDefect), "scripted-defect");
  EXPECT_EQ(to_string(BehaviorType::Faulty), "faulty");
}

}  // namespace
}  // namespace roleshare::sim
