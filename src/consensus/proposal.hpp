// Block proposals and highest-priority selection (§II-B3, Fig 1-b).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "consensus/committee.hpp"
#include "ledger/block.hpp"

namespace roleshare::consensus {

/// "Block proposal" message: the block, the proposer's sortition proof and
/// the derived priority used to drop low-priority proposals early.
struct BlockProposal {
  ledger::NodeId proposer = 0;
  crypto::PublicKey proposer_key;
  ledger::Block block;
  crypto::SortitionResult sortition;
  std::uint64_t priority = 0;

  crypto::Hash256 block_hash() const { return block.hash(); }
};

/// Builds a proposal for a selected leader.
BlockProposal make_proposal(ledger::NodeId proposer,
                            const crypto::PublicKey& key,
                            ledger::Block block,
                            const crypto::SortitionResult& sortition);

/// Verifies the proposal's sortition proof against the round's VRF input
/// and the proposer's stake; checks the claimed priority.
bool verify_proposal(const BlockProposal& proposal,
                     const crypto::VrfInput& input, std::int64_t stake,
                     const crypto::SortitionParams& params);

/// The proposal order: higher priority first, ties to the lower block
/// hash so every node resolves ties identically.
inline bool outranks(std::uint64_t priority, const crypto::Hash256& hash,
                     std::uint64_t best_priority,
                     const crypto::Hash256& best_hash) {
  return priority > best_priority ||
         (priority == best_priority && hash < best_hash);
}

/// Picks the proposal that outranks every other one a node received;
/// nullopt when the span is empty.
std::optional<BlockProposal> select_best_proposal(
    std::span<const BlockProposal> received);

}  // namespace roleshare::consensus
