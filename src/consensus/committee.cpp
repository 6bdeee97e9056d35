#include "consensus/committee.hpp"

#include "util/require.hpp"

namespace roleshare::consensus {

std::uint64_t Committee::total_weight() const {
  std::uint64_t total = 0;
  for (const CommitteeMember& m : members) total += m.weight;
  return total;
}

bool Committee::contains(ledger::NodeId node) const {
  return find(node) != nullptr;
}

const CommitteeMember* Committee::find(ledger::NodeId node) const {
  for (const CommitteeMember& m : members)
    if (m.node == node) return &m;
  return nullptr;
}

Committee elect_committee(const std::vector<crypto::KeyPair>& keys,
                          const std::vector<std::int64_t>& stakes,
                          std::uint64_t round, std::uint32_t step,
                          const crypto::Hash256& prev_seed,
                          std::uint64_t expected_stake,
                          std::int64_t total_stake,
                          const util::InnerExecutor& exec) {
  Committee committee;
  std::vector<crypto::SortitionResult> draws;
  elect_committee_into(keys, stakes, round, step, prev_seed, expected_stake,
                       total_stake, committee, draws, exec);
  return committee;
}

void elect_committee_into(const std::vector<crypto::KeyPair>& keys,
                          const std::vector<std::int64_t>& stakes,
                          std::uint64_t round, std::uint32_t step,
                          const crypto::Hash256& prev_seed,
                          std::uint64_t expected_stake,
                          std::int64_t total_stake, Committee& committee,
                          std::vector<crypto::SortitionResult>& draws_scratch,
                          const util::InnerExecutor& exec) {
  RS_REQUIRE(keys.size() == stakes.size(), "keys/stakes size mismatch");
  elect_committee_into(crypto::SignerTable(keys), stakes, round, step,
                       prev_seed, expected_stake, total_stake, committee,
                       draws_scratch, exec);
}

void elect_committee_into(const crypto::SignerTable& signers,
                          const std::vector<std::int64_t>& stakes,
                          std::uint64_t round, std::uint32_t step,
                          const crypto::Hash256& prev_seed,
                          std::uint64_t expected_stake,
                          std::int64_t total_stake, Committee& committee,
                          std::vector<crypto::SortitionResult>& draws_scratch,
                          const util::InnerExecutor& exec) {
  RS_REQUIRE(signers.size() == stakes.size(), "signers/stakes size mismatch");
  committee.round = round;
  committee.step = step;
  committee.members.clear();

  const crypto::VrfInput input{round, step, prev_seed};
  const crypto::SortitionParams params{expected_stake, total_stake};
  // The VRF evaluations are the expensive part; the winner collection is a
  // cheap serial scan in node order, which keeps `members` deterministic.
  crypto::sortition_batch_into(signers, input, stakes, params, draws_scratch,
                               exec);
  for (std::size_t i = 0; i < draws_scratch.size(); ++i) {
    if (draws_scratch[i].selected()) {
      committee.members.push_back(
          CommitteeMember{static_cast<ledger::NodeId>(i),
                          draws_scratch[i].sub_users, draws_scratch[i]});
    }
  }
}

}  // namespace roleshare::consensus
