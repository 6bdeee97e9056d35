#include "consensus/proposal.hpp"

#include "util/require.hpp"

namespace roleshare::consensus {

BlockProposal make_proposal(ledger::NodeId proposer,
                            const crypto::PublicKey& key,
                            ledger::Block block,
                            const crypto::SortitionResult& sortition) {
  RS_REQUIRE(sortition.selected(), "proposer must have won sortition");
  BlockProposal p;
  p.proposer = proposer;
  p.proposer_key = key;
  p.block = std::move(block);
  p.sortition = sortition;
  p.priority = sortition.priority();
  return p;
}

bool verify_proposal(const BlockProposal& proposal,
                     const crypto::VrfInput& input, std::int64_t stake,
                     const crypto::SortitionParams& params) {
  const std::uint64_t sub_users = crypto::verify_sortition(
      proposal.proposer_key, input, proposal.sortition.vrf, stake, params);
  if (sub_users == 0 || sub_users != proposal.sortition.sub_users)
    return false;
  return proposal.priority == proposal.sortition.priority();
}

std::optional<BlockProposal> select_best_proposal(
    std::span<const BlockProposal> received) {
  const BlockProposal* best = nullptr;
  crypto::Hash256 best_hash;
  for (const BlockProposal& p : received) {
    const crypto::Hash256 h = p.block_hash();
    if (best == nullptr || outranks(p.priority, h, best->priority, best_hash)) {
      best = &p;
      best_hash = h;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace roleshare::consensus
