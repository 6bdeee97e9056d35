#include "util/stake_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace roleshare::util {
namespace {

TEST(StakeIndex, BuildMatchesPrefixSums) {
  const std::vector<std::int64_t> stakes{5, 0, 3, 12, 1, 0, 7};
  const StakeIndex index(stakes);
  EXPECT_EQ(index.size(), stakes.size());
  std::int64_t running = 0;
  for (std::size_t v = 0; v < stakes.size(); ++v) {
    EXPECT_EQ(index.prefix_sum(v), running) << "prefix " << v;
    EXPECT_EQ(index.stake_of(v), stakes[v]);
    running += stakes[v];
  }
  EXPECT_EQ(index.prefix_sum(stakes.size()), running);
  EXPECT_EQ(index.total(), running);
}

TEST(StakeIndex, FindOwnsCorrectOffsets) {
  // Node v owns offsets [prefix_sum(v), prefix_sum(v+1)); zero-stake
  // nodes own nothing and are never returned.
  const std::vector<std::int64_t> stakes{5, 0, 3};
  const StakeIndex index(stakes);
  for (std::int64_t t = 0; t < 5; ++t) EXPECT_EQ(index.find(t), 0u);
  for (std::int64_t t = 5; t < 8; ++t) EXPECT_EQ(index.find(t), 2u);
}

TEST(StakeIndex, FindEdgeCases) {
  // Leading and trailing zero-stake nodes.
  const std::vector<std::int64_t> stakes{0, 0, 4, 0};
  const StakeIndex index(stakes);
  for (std::int64_t t = 0; t < 4; ++t) EXPECT_EQ(index.find(t), 2u);
  // Single-entry index.
  const StakeIndex single(std::vector<std::int64_t>{9});
  for (std::int64_t t = 0; t < 9; ++t) EXPECT_EQ(single.find(t), 0u);
}

TEST(StakeIndex, IncrementalUpdatesMatchFreshRebuild) {
  // The sparse-path determinism contract: after any delta sequence, an
  // incrementally updated index is indistinguishable from a fresh one.
  Rng rng(7);
  std::vector<std::int64_t> stakes(257);
  for (auto& s : stakes) s = rng.uniform_int(0, 40);
  StakeIndex incremental(stakes);
  for (int step = 0; step < 2000; ++step) {
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stakes.size()) - 1));
    stakes[v] = rng.uniform_int(0, 60);
    incremental.update(v, stakes[v]);
  }
  const StakeIndex fresh(stakes);
  ASSERT_EQ(incremental.total(), fresh.total());
  for (std::size_t v = 0; v <= stakes.size(); ++v)
    ASSERT_EQ(incremental.prefix_sum(v), fresh.prefix_sum(v)) << v;
  for (std::int64_t t = 0; t < fresh.total(); t += 13)
    ASSERT_EQ(incremental.find(t), fresh.find(t)) << t;
  // Identical draws from identical rng states.
  Rng a(99), b(99);
  for (int d = 0; d < 200; ++d)
    ASSERT_EQ(incremental.sample(a), fresh.sample(b));
}

TEST(StakeIndex, SampleConsumesExactlyOneUniformInt) {
  const std::vector<std::int64_t> stakes{2, 5, 0, 9};
  const StakeIndex index(stakes);
  Rng sampling(42), manual(42);
  for (int d = 0; d < 100; ++d) {
    const std::size_t got = index.sample(sampling);
    const std::int64_t target = manual.uniform_int(0, index.total() - 1);
    EXPECT_EQ(got, index.find(target));
  }
  // Streams stayed in lockstep -> identical next outputs.
  EXPECT_EQ(sampling(), manual());
}

TEST(StakeIndex, SampleIsStakeProportional) {
  const std::vector<std::int64_t> stakes{1, 0, 3, 6};
  const StakeIndex index(stakes);
  Rng rng(5);
  std::vector<std::size_t> hits(stakes.size(), 0);
  const int draws = 20000;
  for (int d = 0; d < draws; ++d) ++hits[index.sample(rng)];
  EXPECT_EQ(hits[1], 0u);
  EXPECT_NEAR(static_cast<double>(hits[0]) / draws, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(hits[2]) / draws, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(hits[3]) / draws, 0.6, 0.02);
}

TEST(StakeIndex, RebuildReplacesContents) {
  StakeIndex index(std::vector<std::int64_t>{1, 2, 3});
  index.rebuild(std::vector<std::int64_t>{10, 0});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.total(), 10);
  EXPECT_EQ(index.find(9), 0u);
}

// SparseRoundContext::init_from refills the index's own leaf array: the
// released array comes back adopted, not copied, and the rebuilt index
// equals a fresh one over the same stakes.
TEST(StakeIndex, RebuildAdoptsTheReleasedLeaves) {
  StakeIndex index(std::vector<std::int64_t>{4, 0, 7, 1});
  std::vector<std::int64_t> leaves = index.release_leaves();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.total(), 0);
  leaves.assign({2, 9, 0, 5});
  const std::int64_t* storage = leaves.data();
  index.rebuild(std::move(leaves));
  const StakeIndex fresh(std::vector<std::int64_t>{2, 9, 0, 5});
  EXPECT_EQ(index.total(), fresh.total());
  for (std::size_t v = 0; v <= 4; ++v)
    EXPECT_EQ(index.prefix_sum(v), fresh.prefix_sum(v)) << v;
  for (std::int64_t t = 0; t < fresh.total(); ++t)
    EXPECT_EQ(index.find(t), fresh.find(t)) << t;
  EXPECT_EQ(index.release_leaves().data(), storage);
}

TEST(StakeIndex, GuardsRejectInvalidInput) {
  EXPECT_THROW(StakeIndex(std::vector<std::int64_t>{3, -1}),
               std::invalid_argument);
  StakeIndex index(std::vector<std::int64_t>{3, 4});
  EXPECT_THROW(index.update(2, 1), std::invalid_argument);
  EXPECT_THROW(index.update(0, -5), std::invalid_argument);
  // All-zero index: sampling has no valid target.
  StakeIndex zero(std::vector<std::int64_t>{0, 0});
  Rng rng(1);
  EXPECT_THROW((void)zero.sample(rng), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::util
