#include "econ/role_snapshot.hpp"

#include <gtest/gtest.h>

namespace roleshare::econ {
namespace {

using consensus::Role;

RoleSnapshot sample_snapshot() {
  // 2 leaders (stakes 5, 9), 3 committee (2, 4, 8), 3 others (1, 10, 3).
  return RoleSnapshot(
      {Role::Leader, Role::Committee, Role::Other, Role::Leader,
       Role::Committee, Role::Other, Role::Committee, Role::Other},
      {5, 2, 1, 9, 4, 10, 8, 3});
}

TEST(RoleSnapshot, CountsPerRole) {
  const RoleSnapshot s = sample_snapshot();
  EXPECT_EQ(s.node_count(), 8u);
  EXPECT_EQ(s.count(Role::Leader), 2u);
  EXPECT_EQ(s.count(Role::Committee), 3u);
  EXPECT_EQ(s.count(Role::Other), 3u);
}

TEST(RoleSnapshot, StakeAggregates) {
  const RoleSnapshot s = sample_snapshot();
  EXPECT_EQ(s.stake_of(Role::Leader), 14);     // S_L
  EXPECT_EQ(s.stake_of(Role::Committee), 14);  // S_M
  EXPECT_EQ(s.stake_of(Role::Other), 14);      // S_K
  EXPECT_EQ(s.total_stake(), 42);              // S_N
}

TEST(RoleSnapshot, MinStakes) {
  const RoleSnapshot s = sample_snapshot();
  EXPECT_EQ(s.min_stake_of(Role::Leader), 5);     // s*_l
  EXPECT_EQ(s.min_stake_of(Role::Committee), 2);  // s*_m
  EXPECT_EQ(s.min_stake_of(Role::Other), 1);      // s*_k
}

TEST(RoleSnapshot, EmptyRoleMinIsZero) {
  const RoleSnapshot s({Role::Leader}, {5});
  EXPECT_EQ(s.min_stake_of(Role::Committee), 0);
  EXPECT_EQ(s.count(Role::Other), 0u);
}

TEST(RoleSnapshot, PerNodeAccessors) {
  const RoleSnapshot s = sample_snapshot();
  EXPECT_EQ(s.role(0), Role::Leader);
  EXPECT_EQ(s.stake(0), 5);
  EXPECT_EQ(s.role(5), Role::Other);
  EXPECT_EQ(s.stake(5), 10);
}

TEST(RoleSnapshot, RejectsMismatchedSizes) {
  EXPECT_THROW(RoleSnapshot({Role::Leader}, {1, 2}), std::invalid_argument);
}

TEST(RoleSnapshot, RejectsNegativeStake) {
  EXPECT_THROW(RoleSnapshot({Role::Leader}, {-1}), std::invalid_argument);
}

TEST(RoleSnapshot, ZeroStakeNodesAllowed) {
  // Offline nodes are carried with stake 0 (they receive nothing).
  const RoleSnapshot s({Role::Other, Role::Other}, {0, 5});
  EXPECT_EQ(s.stake_of(Role::Other), 5);
  EXPECT_EQ(s.min_stake_of(Role::Other), 0);
}

}  // namespace
}  // namespace roleshare::econ
