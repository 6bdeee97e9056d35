#include "ledger/blockchain.hpp"

#include <gtest/gtest.h>

namespace roleshare::ledger {
namespace {

crypto::KeyPair key_of(std::uint64_t id) {
  return crypto::KeyPair::derive(2000, id);
}

TEST(Block, MakeCarriesContent) {
  const auto proposer = key_of(2);
  const Block b = Block::make(3, crypto::Hash256::zero(),
                              crypto::Hash256::zero(), proposer.public_key());
  EXPECT_EQ(b.round(), 3u);
  EXPECT_FALSE(b.is_empty());
  EXPECT_EQ(b.proposer(), proposer.public_key());
}

TEST(Block, HashDependsOnContent) {
  const Block a = Block::make(1, crypto::Hash256::zero(),
                              crypto::Hash256::zero(), key_of(2).public_key());
  const Block b = Block::make(1, crypto::Hash256::zero(),
                              crypto::Hash256::zero(), key_of(3).public_key());
  const Block e = Block::empty(1, crypto::Hash256::zero(),
                               crypto::Hash256::zero());
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), e.hash());
}

TEST(Block, EmptyBlockHashIsCanonical) {
  // Every node derives the identical empty block for (round, prev, seed).
  const Block a = Block::empty(4, crypto::Hash256::zero(),
                               crypto::Hash256::zero());
  const Block b = Block::empty(4, crypto::Hash256::zero(),
                               crypto::Hash256::zero());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Blockchain, GenesisState) {
  const Blockchain chain(7);
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.next_round(), 1u);
  EXPECT_TRUE(chain.tip().is_empty());
  EXPECT_FALSE(chain.current_seed().is_zero());
}

TEST(Blockchain, GenesisSeedDependsOnSeedValue) {
  EXPECT_NE(Blockchain(1).current_seed(), Blockchain(2).current_seed());
}

TEST(Blockchain, AppendValidBlock) {
  Blockchain chain(7);
  const Block next = Block::make(chain.next_round(), chain.tip().hash(),
                                 chain.next_seed(), key_of(0).public_key());
  EXPECT_TRUE(chain.append(next));
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.non_empty_count(), 1u);
}

TEST(Blockchain, RejectsWrongRound) {
  Blockchain chain(7);
  const Block bad = Block::make(5, chain.tip().hash(), chain.next_seed(),
                                key_of(0).public_key());
  EXPECT_FALSE(chain.append(bad));
  EXPECT_EQ(chain.height(), 1u);
}

TEST(Blockchain, RejectsWrongPrevHash) {
  Blockchain chain(7);
  const Block bad = Block::make(chain.next_round(), crypto::Hash256::zero(),
                                chain.next_seed(), key_of(0).public_key());
  EXPECT_FALSE(chain.append(bad));
}

TEST(Blockchain, RejectsWrongSeed) {
  Blockchain chain(7);
  const Block bad =
      Block::make(chain.next_round(), chain.tip().hash(),
                  crypto::HashBuilder("bogus").build(),
                  key_of(0).public_key());
  EXPECT_FALSE(chain.append(bad));
}

TEST(Blockchain, SeedEvolvesEveryRound) {
  Blockchain chain(7);
  const crypto::Hash256 seed0 = chain.current_seed();
  ASSERT_TRUE(chain.append(Block::empty(chain.next_round(),
                                        chain.tip().hash(),
                                        chain.next_seed())));
  const crypto::Hash256 seed1 = chain.current_seed();
  ASSERT_TRUE(chain.append(Block::empty(chain.next_round(),
                                        chain.tip().hash(),
                                        chain.next_seed())));
  EXPECT_NE(seed0, seed1);
  EXPECT_NE(seed1, chain.current_seed());
}

TEST(Blockchain, LongChainStaysConsistent) {
  Blockchain chain(3);
  for (int i = 0; i < 50; ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(chain.append(Block::make(chain.next_round(),
                                           chain.tip().hash(),
                                           chain.next_seed(),
                                           key_of(0).public_key())));
    } else {
      ASSERT_TRUE(chain.append(Block::empty(
          chain.next_round(), chain.tip().hash(), chain.next_seed())));
    }
  }
  EXPECT_EQ(chain.height(), 51u);
  EXPECT_EQ(chain.non_empty_count(), 17u);
  // Hash-link integrity along the whole chain.
  for (std::size_t i = 1; i < chain.height(); ++i) {
    EXPECT_EQ(chain.at(i).prev_hash(), chain.at(i - 1).hash());
    EXPECT_EQ(chain.at(i).round(), i);
  }
}

TEST(Blockchain, AtRejectsOutOfRange) {
  const Blockchain chain(1);
  EXPECT_THROW(chain.at(5), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::ledger
