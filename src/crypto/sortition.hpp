// Cryptographic sortition (Gilad et al., SOSP'17, Algorithm 1).
//
// A node with stake w out of total stake W is selected for a role with
// expected committee *stake* tau: each of its w stake units is independently
// selected with probability p = tau / W. The number of selected sub-users j
// is found by inverting the Binomial(w, p) CDF at the VRF hash-ratio, so
// selection is deterministic, verifiable, and E[sum of j over nodes] = tau.
#pragma once

#include <array>
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

/// A certificate that binomial_inversion(ratio, stake, p) returns 0,
/// decided without std::pow: true only when stake > 0, 0 < p, q = 1 - p
/// >= 0.5 and ratio < fl(1 - fl(w * d)) - 2^-40, where w = double(stake)
/// and d = 1 - q (the proof is at the definition). False settles nothing:
/// the caller runs binomial_inversion. At Fig 3's parameters it settles
/// over 99 % of the draws that select no sub-user.
bool surely_unselected(double ratio, std::int64_t stake, double p);

/// Runs sortition for the given key over `input`, with the node's stake.
/// Requires 0 < params.expected_stake and stake <= params.total_stake.
SortitionResult sortition(const KeyPair& key, const VrfInput& input,
                          std::int64_t stake, const SortitionParams& params);

/// Every key's SHA-256 state after the first block of its sortition
/// signature message H("roleshare.sig" || pk || msg), 32 bytes per key.
/// That message is 101 bytes; its first block holds the domain tag, pk
/// and the first bytes of msg's constant length prefix, so it depends on
/// pk alone and a batch hashes only the second block per node. Built
/// once for a fixed key set (the round engine builds one per engine);
/// it is not kept with the keys, so populations that never run per-node
/// sortition pay nothing for it.
class SignerTable {
 public:
  SignerTable() = default;
  explicit SignerTable(const std::vector<KeyPair>& keys);

  std::size_t size() const { return states_.size(); }
  const std::array<std::uint32_t, 8>& state(std::size_t v) const {
    return states_[v];
  }

 private:
  std::vector<std::array<std::uint32_t, 8>> states_;
};

/// Runs sortition for every signer at once — the per-round "each node
/// draws locally" loop, batched so it can fan out across the inner
/// executor. Writes into `results` (resized to stakes.size()) at each
/// node's index, so the output is identical for every executor (serial
/// included). Requires signers.size() == stakes.size(). Per node it runs
/// three compressions, two nodes at a time (sha256_compress_pair): the
/// signature's second block from the node's table state, then the two
/// blocks of the VRF output message; surely_unselected settles most
/// unselected draws before binomial_inversion. Bit-identical to per-node
/// sortition() calls.
void sortition_batch_into(const SignerTable& signers, const VrfInput& input,
                          const std::vector<std::int64_t>& stakes,
                          const SortitionParams& params,
                          std::vector<SortitionResult>& results,
                          const util::InnerExecutor& exec = {});

/// Same, from the keys: builds their SignerTable and runs the kernel
/// above.
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
