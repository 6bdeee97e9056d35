// Cryptographic sortition (Gilad et al., SOSP'17, Algorithm 1).
//
// A node with stake w out of total stake W is selected for a role with
// expected committee *stake* tau: each of its w stake units is independently
// selected with probability p = tau / W. The number of selected sub-users j
// is found by inverting the Binomial(w, p) CDF at the VRF hash-ratio, so
// selection is deterministic, verifiable, and E[sum of j over nodes] = tau.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/vrf.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::crypto {

/// Result of running sortition for one (node, round, step).
struct SortitionResult {
  std::uint64_t sub_users = 0;  // j: how many of the node's stake units won
  VrfOutput vrf;                // proof material carried in messages

  bool selected() const { return sub_users > 0; }

  /// Priority for leader election: the best (numerically highest) of the
  /// sub-user priorities H(vrf_output || sub_user_index). Zero when not
  /// selected.
  std::uint64_t priority() const;
};

/// Parameters binding a sortition call to a protocol role.
struct SortitionParams {
  std::uint64_t expected_stake = 0;  // tau for this role/step
  std::int64_t total_stake = 0;      // W: all online stake
};

/// Inverts the Binomial(stake, tau/W) CDF at `ratio` in [0,1).
/// Returns the number of selected sub-users. Exposed separately for tests.
std::uint64_t binomial_inversion(double ratio, std::int64_t stake,
                                 double p);

/// Runs sortition for the given key over `input`, with the node's stake.
/// Requires 0 < params.expected_stake and stake <= params.total_stake.
SortitionResult sortition(const KeyPair& key, const VrfInput& input,
                          std::int64_t stake, const SortitionParams& params);

/// Runs sortition for every key at once — the per-round "each node draws
/// locally" loop, batched so it can fan out across the inner executor.
/// Writes into `results` (resized to keys.size()) at each node's index, so
/// the output is identical for every executor (serial included). Requires
/// keys.size() == stakes.size(). Hashes through fixed-layout SHA-256
/// templates — the VRF input message is computed once per batch and the
/// per-node sign/output messages reuse a precomputed padded block,
/// skipping the streaming hasher entirely. Bit-identical to per-node
/// sortition() calls.
void sortition_batch_into(const std::vector<KeyPair>& keys,
                          const VrfInput& input,
                          const std::vector<std::int64_t>& stakes,
                          const SortitionParams& params,
                          std::vector<SortitionResult>& results,
                          const util::InnerExecutor& exec = {});

/// Verifies a sortition proof allegedly produced by `pk` and recomputes the
/// winning sub-user count. Returns 0 sub-users if the proof is invalid.
std::uint64_t verify_sortition(const PublicKey& pk, const VrfInput& input,
                               const VrfOutput& vrf, std::int64_t stake,
                               const SortitionParams& params);

}  // namespace roleshare::crypto
