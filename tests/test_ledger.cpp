#include <gtest/gtest.h>

#include "ledger/account_table.hpp"
#include "ledger/transaction.hpp"
#include "ledger/txpool.hpp"

namespace roleshare::ledger {
namespace {

crypto::KeyPair key_of(std::uint64_t id) {
  return crypto::KeyPair::derive(1000, id);
}

TEST(Types, AlgoConversions) {
  EXPECT_EQ(algos(5), 5'000'000);
  EXPECT_DOUBLE_EQ(to_algos(2'500'000), 2.5);
}

TEST(Transaction, CreateAndVerify) {
  const auto sender = key_of(0);
  const auto receiver = key_of(1);
  const Transaction txn =
      Transaction::create(sender, receiver.public_key(), algos(3), 100, 7);
  EXPECT_TRUE(txn.verify_signature());
  EXPECT_EQ(txn.amount(), algos(3));
  EXPECT_EQ(txn.fee(), 100);
  EXPECT_EQ(txn.nonce(), 7u);
  EXPECT_EQ(txn.sender(), sender.public_key());
  EXPECT_EQ(txn.receiver(), receiver.public_key());
}

TEST(Transaction, IdExcludesNothingImportant) {
  const auto sender = key_of(0);
  const auto receiver = key_of(1);
  const auto a =
      Transaction::create(sender, receiver.public_key(), algos(1), 0, 1);
  const auto b =
      Transaction::create(sender, receiver.public_key(), algos(1), 0, 2);
  const auto c =
      Transaction::create(sender, receiver.public_key(), algos(2), 0, 1);
  EXPECT_NE(a.id(), b.id());  // nonce differs
  EXPECT_NE(a.id(), c.id());  // amount differs
}

TEST(Transaction, RejectsNonPositiveAmount) {
  const auto sender = key_of(0);
  EXPECT_THROW(
      Transaction::create(sender, key_of(1).public_key(), 0, 0, 1),
      std::invalid_argument);
  EXPECT_THROW(
      Transaction::create(sender, key_of(1).public_key(), algos(1), -1, 1),
      std::invalid_argument);
}

TEST(AccountTable, AddAndLookup) {
  AccountTable table;
  const NodeId a = table.add_account(key_of(0).public_key(), algos(10));
  const NodeId b = table.add_account(key_of(1).public_key(), algos(20));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.balance(a), algos(10));
  EXPECT_EQ(table.stake(b), 20);
  EXPECT_EQ(table.find(key_of(1).public_key()), std::optional<NodeId>(1));
  EXPECT_FALSE(table.find(key_of(9).public_key()).has_value());
}

TEST(AccountTable, RejectsDuplicateKey) {
  AccountTable table;
  table.add_account(key_of(0).public_key(), algos(1));
  EXPECT_THROW(table.add_account(key_of(0).public_key(), algos(2)),
               std::invalid_argument);
}

// A key whose first 8 bytes, the key index's probe hash, are `prefix`.
crypto::PublicKey key_with_prefix(std::uint64_t prefix, std::uint8_t tail) {
  crypto::Digest bytes{};
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(prefix >> (56 - 8 * i));
  bytes[31] = tail;
  return crypto::PublicKey{crypto::Hash256(bytes)};
}

TEST(AccountTable, KeysSharingTheProbeHashRoundTrip) {
  constexpr std::uint64_t kPrefix = 0x0123456789abcdefULL;
  AccountTable table;
  // One probe cluster, interleaved with unrelated keys and carried
  // through several table growths.
  for (std::uint8_t t = 0; t < 40; ++t) {
    table.add_account(key_with_prefix(kPrefix, t), algos(1));
    table.add_account(key_of(t).public_key(), algos(2));
  }
  for (std::uint8_t t = 0; t < 40; ++t) {
    EXPECT_EQ(table.find(key_with_prefix(kPrefix, t)),
              std::optional<NodeId>(2 * t));
    EXPECT_EQ(table.find(key_of(t).public_key()),
              std::optional<NodeId>(2 * t + 1));
  }
  // Same probe hash, not registered: the probe walks the whole cluster.
  EXPECT_FALSE(table.find(key_with_prefix(kPrefix, 200)).has_value());
  EXPECT_THROW(table.add_account(key_with_prefix(kPrefix, 39), algos(1)),
               std::invalid_argument);
}

TEST(AccountTable, FindOnEmptyTableIsNullopt) {
  const AccountTable table;
  EXPECT_FALSE(table.find(key_of(0).public_key()).has_value());
}

TEST(AccountTable, RejectsDuplicateKeyAfterGrowth) {
  AccountTable table;
  for (std::uint64_t i = 0; i < 10'000; ++i)
    table.add_account(key_of(i).public_key(), algos(1));
  EXPECT_THROW(table.add_account(key_of(0).public_key(), algos(1)),
               std::invalid_argument);
  EXPECT_EQ(table.size(), 10'000u);
  EXPECT_EQ(table.find(key_of(0).public_key()), std::optional<NodeId>(0));
  EXPECT_EQ(table.find(key_of(9'999).public_key()),
            std::optional<NodeId>(9'999));
}

TEST(AccountTable, TotalStakeSumsWholeAlgos) {
  AccountTable table;
  table.add_account(key_of(0).public_key(), algos(10) + 400'000);
  table.add_account(key_of(1).public_key(), algos(5));
  EXPECT_EQ(table.total_stake(), 15);  // fractional part ignored
  EXPECT_EQ(table.stakes(), (std::vector<std::int64_t>{10, 5}));
}

TEST(AccountTable, ApplyTransfersValue) {
  AccountTable table;
  const NodeId a = table.add_account(key_of(0).public_key(), algos(10));
  const NodeId b = table.add_account(key_of(1).public_key(), algos(1));
  const auto txn =
      Transaction::create(key_of(0), key_of(1).public_key(), algos(4), 500, 1);
  ASSERT_TRUE(table.validate(txn));
  ASSERT_TRUE(table.apply(txn));
  EXPECT_EQ(table.balance(a), algos(6) - 500);
  EXPECT_EQ(table.balance(b), algos(5));
}

TEST(AccountTable, RejectsOverdraft) {
  AccountTable table;
  table.add_account(key_of(0).public_key(), algos(2));
  table.add_account(key_of(1).public_key(), 0);
  const auto txn =
      Transaction::create(key_of(0), key_of(1).public_key(), algos(3), 0, 1);
  EXPECT_FALSE(table.validate(txn));
  EXPECT_FALSE(table.apply(txn));
  EXPECT_EQ(table.balance(0), algos(2));  // unchanged
}

TEST(AccountTable, RejectsUnknownParties) {
  AccountTable table;
  table.add_account(key_of(0).public_key(), algos(5));
  const auto txn =
      Transaction::create(key_of(0), key_of(9).public_key(), algos(1), 0, 1);
  EXPECT_FALSE(table.validate(txn));
}

TEST(AccountTable, RejectsSelfTransfer) {
  AccountTable table;
  table.add_account(key_of(0).public_key(), algos(5));
  const auto txn =
      Transaction::create(key_of(0), key_of(0).public_key(), algos(1), 0, 1);
  EXPECT_FALSE(table.validate(txn));
}

TEST(AccountTable, CreditIncreasesBalance) {
  AccountTable table;
  const NodeId a = table.add_account(key_of(0).public_key(), algos(1));
  table.credit(a, 250'000);
  EXPECT_EQ(table.balance(a), algos(1) + 250'000);
  EXPECT_THROW(table.credit(a, -1), std::invalid_argument);
}

TEST(TxPool, SubmitAndDedup) {
  TxPool pool;
  const auto txn =
      Transaction::create(key_of(0), key_of(1).public_key(), algos(1), 0, 1);
  EXPECT_TRUE(pool.submit(txn));
  EXPECT_FALSE(pool.submit(txn));  // duplicate id
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(txn.id()));
}

TEST(TxPool, PeekPreservesOrderAndDoesNotRemove) {
  TxPool pool;
  for (std::uint64_t i = 0; i < 5; ++i) {
    pool.submit(Transaction::create(key_of(0), key_of(1).public_key(),
                                    algos(1), 0, i));
  }
  const auto taken = pool.peek(3);
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].nonce(), 0u);
  EXPECT_EQ(taken[2].nonce(), 2u);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(TxPool, MarkIncludedRemoves) {
  TxPool pool;
  std::vector<Transaction> txns;
  for (std::uint64_t i = 0; i < 4; ++i) {
    txns.push_back(Transaction::create(key_of(0), key_of(1).public_key(),
                                       algos(1), 0, i));
    pool.submit(txns.back());
  }
  pool.mark_included({txns[0], txns[2]});
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.contains(txns[0].id()));
  EXPECT_TRUE(pool.contains(txns[1].id()));
  // Removed ids can be resubmitted (e.g. a reorg would reintroduce them).
  EXPECT_TRUE(pool.submit(txns[0]));
}

TEST(TxPool, ClearEmptiesEverything) {
  TxPool pool;
  pool.submit(
      Transaction::create(key_of(0), key_of(1).public_key(), algos(1), 0, 1));
  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.peek(10).size(), 0u);
}

}  // namespace
}  // namespace roleshare::ledger
