#include "econ/role_snapshot.hpp"

#include "util/require.hpp"

namespace roleshare::econ {

namespace {
std::size_t idx(consensus::Role r) { return static_cast<std::size_t>(r); }
}  // namespace

RoleSnapshot::RoleSnapshot(std::vector<consensus::Role> roles,
                           std::vector<std::int64_t> stakes)
    : roles_(std::move(roles)), stakes_(std::move(stakes)) {
  recompute_aggregates();
}

void RoleSnapshot::reset(std::vector<consensus::Role>& roles,
                         std::vector<std::int64_t>& stakes) {
  roles_.swap(roles);
  stakes_.swap(stakes);
  recompute_aggregates();
}

void RoleSnapshot::recompute_aggregates() {
  RS_REQUIRE(roles_.size() == stakes_.size(), "roles/stakes size mismatch");
  stake_sum_.fill(0);
  stake_min_.fill(0);
  counts_.fill(0);
  for (std::size_t v = 0; v < roles_.size(); ++v) {
    RS_REQUIRE(stakes_[v] >= 0, "negative stake");
    const std::size_t i = idx(roles_[v]);
    stake_sum_[i] += stakes_[v];
    if (counts_[i] == 0 || stakes_[v] < stake_min_[i])
      stake_min_[i] = stakes_[v];
    ++counts_[i];
  }
}

std::size_t RoleSnapshot::count(consensus::Role r) const {
  return counts_[idx(r)];
}

std::int64_t RoleSnapshot::stake_of(consensus::Role r) const {
  return stake_sum_[idx(r)];
}

std::int64_t RoleSnapshot::total_stake() const {
  return stake_sum_[0] + stake_sum_[1] + stake_sum_[2];
}

std::int64_t RoleSnapshot::min_stake_of(consensus::Role r) const {
  return counts_[idx(r)] == 0 ? 0 : stake_min_[idx(r)];
}

}  // namespace roleshare::econ
