#include "econ/cost_model.hpp"

#include <gtest/gtest.h>

namespace roleshare::econ {
namespace {

using consensus::Role;

TEST(CostModel, DefaultsMatchPaperSectionVA) {
  // §V-A: c_L = 16, c_M = 12, c_K = 6, c_so = 5 micro-Algos.
  const CostModel costs;
  EXPECT_DOUBLE_EQ(costs.leader_cost(), 16.0);
  EXPECT_DOUBLE_EQ(costs.committee_cost(), 12.0);
  EXPECT_DOUBLE_EQ(costs.other_cost(), 6.0);
  EXPECT_DOUBLE_EQ(costs.defection_cost(), 5.0);
}

TEST(CostModel, FixedCostIsEquationOne) {
  // Eq (1): c_fix = c_ve + c_se + c_so + c_go + c_vs + c_vc.
  TaskCosts t;
  t.cve = 1;
  t.cse = 2;
  t.cso = 3;
  t.cvs = 4;
  t.cgo = 5;
  t.cvc = 6;
  t.cbl = 100;  // leader-only, excluded from c_fix
  t.cbs = 200;
  t.cvo = 300;
  const CostModel costs(t);
  EXPECT_DOUBLE_EQ(costs.fixed_cost(), 21.0);
  EXPECT_DOUBLE_EQ(costs.leader_cost(), 121.0);      // + c_bl
  EXPECT_DOUBLE_EQ(costs.committee_cost(), 521.0);   // + c_bs + c_vo
  EXPECT_DOUBLE_EQ(costs.other_cost(), 21.0);
}

TEST(CostModel, CooperationCostDispatch) {
  const CostModel costs;
  EXPECT_DOUBLE_EQ(costs.cooperation_cost(Role::Leader), costs.leader_cost());
  EXPECT_DOUBLE_EQ(costs.cooperation_cost(Role::Committee),
                   costs.committee_cost());
  EXPECT_DOUBLE_EQ(costs.cooperation_cost(Role::Other), costs.other_cost());
}

TEST(CostModel, RoleCostOrdering) {
  // Cooperation must cost at least defection; leaders/committee pay extra.
  const CostModel costs;
  EXPECT_GT(costs.leader_cost(), costs.other_cost());
  EXPECT_GT(costs.committee_cost(), costs.other_cost());
  EXPECT_GT(costs.other_cost(), costs.defection_cost());
}

TEST(TaskCosts, ValidateRejectsNegative) {
  TaskCosts t;
  t.cvo = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

// Table II: which role performs which task.
TEST(CostModel, TableTwoRoleTaskMatrix) {
  // Fixed-cost tasks are performed by every role.
  for (const auto task :
       {"transaction_verification", "seed_generation", "sortition",
        "verify_sortition_proof", "gossiping", "vote_counting"}) {
    EXPECT_TRUE(CostModel::role_performs(Role::Leader, task)) << task;
    EXPECT_TRUE(CostModel::role_performs(Role::Committee, task)) << task;
    EXPECT_TRUE(CostModel::role_performs(Role::Other, task)) << task;
  }
  // Block proposition: leaders only.
  EXPECT_TRUE(CostModel::role_performs(Role::Leader, "block_proposition"));
  EXPECT_FALSE(
      CostModel::role_performs(Role::Committee, "block_proposition"));
  EXPECT_FALSE(CostModel::role_performs(Role::Other, "block_proposition"));
  // Block selection and voting: committee only.
  for (const auto task : {"block_selection", "vote"}) {
    EXPECT_FALSE(CostModel::role_performs(Role::Leader, task)) << task;
    EXPECT_TRUE(CostModel::role_performs(Role::Committee, task)) << task;
    EXPECT_FALSE(CostModel::role_performs(Role::Other, task)) << task;
  }
}

}  // namespace
}  // namespace roleshare::econ
