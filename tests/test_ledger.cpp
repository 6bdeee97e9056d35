#include <gtest/gtest.h>

#include "ledger/account_table.hpp"

namespace roleshare::ledger {
namespace {

TEST(Types, AlgoConversions) {
  EXPECT_EQ(algos(5), 5'000'000);
  EXPECT_DOUBLE_EQ(to_algos(2'500'000), 2.5);
}

TEST(AccountTable, AddAndLookup) {
  AccountTable table;
  const NodeId a = table.add_account(algos(10));
  const NodeId b = table.add_account(algos(20));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.balance(a), algos(10));
  EXPECT_EQ(table.stake(b), 20);
  EXPECT_THROW(table.balance(2), std::invalid_argument);
  EXPECT_THROW(table.stake(9), std::invalid_argument);
}

TEST(AccountTable, TotalStakeSumsWholeAlgos) {
  AccountTable table;
  table.add_account(algos(10) + 400'000);
  table.add_account(algos(5));
  EXPECT_EQ(table.total_stake(), 15);  // fractional part ignored
  EXPECT_EQ(table.stakes(), (std::vector<std::int64_t>{10, 5}));
}

TEST(AccountTable, CreditIncreasesBalance) {
  AccountTable table;
  const NodeId a = table.add_account(algos(1));
  table.credit(a, 250'000);
  EXPECT_EQ(table.balance(a), algos(1) + 250'000);
  EXPECT_THROW(table.credit(a, -1), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::ledger
