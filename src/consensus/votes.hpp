// Voting messages and weighted vote counting (§II-B2/B3).
//
// A vote carries the voter's sortition proof; counting verifies each proof,
// sums the verified sub-user weights per value, and reports the value whose
// weight crosses the step quorum T * tau — the rules both round cores run.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "crypto/sortition.hpp"
#include "ledger/types.hpp"

namespace roleshare::consensus {

struct Vote {
  ledger::NodeId voter = 0;
  crypto::PublicKey voter_key;
  std::uint64_t round = 0;
  std::uint32_t step = 0;
  crypto::Hash256 value;  // block hash voted for
  std::uint64_t weight = 0;
  crypto::SortitionResult sortition;
};

/// Builds a vote for a committee member who won sortition for (round, step).
Vote make_vote(ledger::NodeId voter, const crypto::PublicKey& key,
               std::uint64_t round, std::uint32_t step,
               const crypto::Hash256& value,
               const crypto::SortitionResult& sortition);

/// Verifies a single vote's sortition proof and claimed weight.
/// `stake` is the voter's stake; `params` the step's sortition parameters.
bool verify_vote(const Vote& vote, const crypto::Hash256& prev_seed,
                 std::int64_t stake, const crypto::SortitionParams& params);

/// Verifies a batch of votes, fanning the per-vote proof checks out across
/// `exec`. Verdicts go into `valid` (assigned to votes.size(), capacity
/// kept across calls) at their vote index (std::uint8_t, not bool —
/// std::vector<bool> packs bits and would race under the fan-out), so the
/// result is identical for every executor. `stakes` is indexed by voter
/// id.
void verify_votes_into(std::span<const Vote> votes,
                       const crypto::Hash256& prev_seed,
                       const std::vector<std::int64_t>& stakes,
                       const crypto::SortitionParams& params,
                       std::vector<std::uint8_t>& valid,
                       const util::InnerExecutor& exec = {});

/// A vote's coin hash: H("roleshare.coin", vrf_output), through a
/// fixed-layout template built once.
crypto::Hash256 coin_hash(const crypto::Hash256& vrf_output);

/// The quorum rule: the index of the value whose weight is strictly
/// above `quorum` — the highest weight, ties to the lower hash so all
/// nodes agree — or -1 when no value is. `weights[k]` is `values[k]`'s.
int quorum_winner(std::span<const std::uint64_t> weights,
                  std::span<const crypto::Hash256> values, double quorum);

/// Algorand's common coin over the votes one view counted: the least
/// significant bit of the minimum coin hash, false when it counted none.
struct CommonCoin {
  bool any = false;
  crypto::Hash256 min;

  void add(const crypto::Hash256& h) {
    if (!any || h < min) min = h;
    any = true;
  }
  bool bit() const { return any && (min.bytes().back() & 1) != 0; }
};

/// Result of tallying one step.
struct TallyResult {
  /// Value whose verified weight exceeded the quorum, if any.
  std::optional<crypto::Hash256> winner;
  /// Verified weight of the winning value (0 when no winner).
  std::uint64_t winner_weight = 0;
  /// Total verified weight across all values.
  std::uint64_t total_weight = 0;
};

/// Vote tally for one (round, step). Assumes votes were already verified
/// (the simulator verifies at receive time); duplicate votes by the same
/// voter are counted once.
class VoteCounter {
 public:
  explicit VoteCounter(double quorum);

  /// Adds a vote; returns false if this voter was already counted.
  bool add(const Vote& vote);

  /// Current weight for a value.
  std::uint64_t weight_for(const crypto::Hash256& value) const;
  std::uint64_t total_weight() const { return total_weight_; }

  /// The quorum_winner of the counted values, if any.
  TallyResult result() const;

  /// The common coin over the counted votes' coin hashes; nullopt when no
  /// votes were counted.
  std::optional<bool> common_coin() const;

 private:
  double quorum_;
  /// Distinct values in first-vote order, with their summed weights.
  std::vector<crypto::Hash256> values_;
  std::vector<std::uint64_t> weights_;
  std::vector<ledger::NodeId> seen_voters_;
  std::uint64_t total_weight_ = 0;
  CommonCoin coin_;
};

/// Convenience: tally a batch of votes against a quorum.
TallyResult tally_votes(std::span<const Vote> votes, double quorum);

}  // namespace roleshare::consensus
