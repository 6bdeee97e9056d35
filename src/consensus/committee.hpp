// Committee election via cryptographic sortition, for a whole population.
//
// Election is per (round, step): every node evaluates its VRF and wins
// `weight` sub-users with expectation proportional to stake. This module
// runs that computation for all nodes at once — which is exactly what each
// node does locally, since sortition is deterministic and verifiable.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sortition.hpp"
#include "ledger/types.hpp"

namespace roleshare::consensus {

struct CommitteeMember {
  ledger::NodeId node = 0;
  std::uint64_t weight = 0;  // selected sub-users (vote weight)
  crypto::SortitionResult sortition;
};

struct Committee {
  std::uint64_t round = 0;
  std::uint32_t step = 0;
  std::vector<CommitteeMember> members;

  /// Total selected stake across members.
  std::uint64_t total_weight() const;
  bool contains(ledger::NodeId node) const;
  const CommitteeMember* find(ledger::NodeId node) const;
};

/// Elects the committee for (round, step) given every node's signer and
/// stake. `expected_stake` is tau for the step's role; `total_stake` is W.
/// The result goes into `committee` (members cleared and refilled,
/// capacity kept) and the per-node VRF draws use `draws_scratch` as
/// working memory, so a repeated election allocates nothing. The draws
/// fan out across `exec` (default: serial); members are collected in node
/// order afterwards, so the elected committee is identical for every
/// executor. The round engine calls it with the SignerTable it built once.
void elect_committee_into(const crypto::SignerTable& signers,
                          const std::vector<std::int64_t>& stakes,
                          std::uint64_t round, std::uint32_t step,
                          const crypto::Hash256& prev_seed,
                          std::uint64_t expected_stake,
                          std::int64_t total_stake, Committee& committee,
                          std::vector<crypto::SortitionResult>& draws_scratch,
                          const util::InnerExecutor& exec = {});

/// Same, from the keys: builds their SignerTable first.
void elect_committee_into(const std::vector<crypto::KeyPair>& keys,
                          const std::vector<std::int64_t>& stakes,
                          std::uint64_t round, std::uint32_t step,
                          const crypto::Hash256& prev_seed,
                          std::uint64_t expected_stake,
                          std::int64_t total_stake, Committee& committee,
                          std::vector<crypto::SortitionResult>& draws_scratch,
                          const util::InnerExecutor& exec = {});

}  // namespace roleshare::consensus
