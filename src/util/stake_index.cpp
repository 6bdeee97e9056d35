#include "util/stake_index.hpp"

#include <utility>

#include "util/require.hpp"

namespace roleshare::util {

StakeIndex::StakeIndex(std::span<const std::int64_t> stakes) {
  rebuild(std::vector<std::int64_t>(stakes.begin(), stakes.end()));
}

void StakeIndex::rebuild(std::vector<std::int64_t>&& stakes) {
  stake_ = std::move(stakes);
  const std::size_t n = stake_.size();
  tree_.assign(n + 1, 0);
  total_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    RS_REQUIRE(stake_[i] >= 0, "stake index: negative stake");
    total_ += stake_[i];
  }
  // O(n) bottom-up build: seed the leaves, then push each node's sum into
  // its Fenwick parent.
  for (std::size_t i = 1; i <= n; ++i) tree_[i] = stake_[i - 1];
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t parent = i + (i & (~i + 1));
    if (parent <= n) tree_[parent] += tree_[i];
  }
  descent_mask_ = 1;
  while (descent_mask_ * 2 <= n) descent_mask_ *= 2;
  if (n == 0) descent_mask_ = 0;
}

std::vector<std::int64_t> StakeIndex::release_leaves() {
  tree_.clear();
  total_ = 0;
  descent_mask_ = 0;
  return std::exchange(stake_, {});
}

void StakeIndex::update(std::size_t v, std::int64_t new_stake) {
  RS_REQUIRE(v < stake_.size(), "stake index: node out of range");
  RS_REQUIRE(new_stake >= 0, "stake index: negative stake");
  const std::int64_t delta = new_stake - stake_[v];
  if (delta == 0) return;
  stake_[v] = new_stake;
  total_ += delta;
  for (std::size_t i = v + 1; i < tree_.size(); i += i & (~i + 1))
    tree_[i] += delta;
}

std::int64_t StakeIndex::prefix_sum(std::size_t v) const {
  RS_REQUIRE(v <= stake_.size(), "stake index: prefix out of range");
  std::int64_t sum = 0;
  for (std::size_t i = v; i > 0; i -= i & (~i + 1)) sum += tree_[i];
  return sum;
}

std::size_t StakeIndex::find(std::int64_t target) const {
  RS_REQUIRE(target >= 0 && target < total_,
             "stake index: offset outside [0, total)");
  const std::size_t n = stake_.size();
  std::size_t pos = 0;
  for (std::size_t k = descent_mask_; k > 0; k >>= 1) {
    const std::size_t next = pos + k;
    if (next <= n && tree_[next] <= target) {
      pos = next;
      target -= tree_[next];
    }
  }
  return pos;  // 0-based: the first leaf whose cumulative range covers target
}

std::size_t StakeIndex::sample(Rng& rng) const {
  RS_REQUIRE(total_ > 0, "stake index: sampling from zero total stake");
  return find(rng.uniform_int(0, total_ - 1));
}

}  // namespace roleshare::util
