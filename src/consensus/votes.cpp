#include "consensus/votes.hpp"

#include <algorithm>
#include <utility>

#include "util/require.hpp"

namespace roleshare::consensus {

Vote make_vote(ledger::NodeId voter, const crypto::PublicKey& key,
               std::uint64_t round, std::uint32_t step,
               const crypto::Hash256& value,
               const crypto::SortitionResult& sortition) {
  RS_REQUIRE(sortition.selected(), "voter must have won sortition");
  Vote v;
  v.voter = voter;
  v.voter_key = key;
  v.round = round;
  v.step = step;
  v.value = value;
  v.weight = sortition.sub_users;
  v.sortition = sortition;
  return v;
}

bool verify_vote(const Vote& vote, const crypto::Hash256& prev_seed,
                 std::int64_t stake, const crypto::SortitionParams& params) {
  const crypto::VrfInput input{vote.round, vote.step, prev_seed};
  const std::uint64_t sub_users = crypto::verify_sortition(
      vote.voter_key, input, vote.sortition.vrf, stake, params);
  return sub_users > 0 && sub_users == vote.weight;
}

std::vector<std::uint8_t> verify_votes(std::span<const Vote> votes,
                                       const crypto::Hash256& prev_seed,
                                       const std::vector<std::int64_t>& stakes,
                                       const crypto::SortitionParams& params,
                                       const util::InnerExecutor& exec) {
  std::vector<std::uint8_t> valid;
  verify_votes_into(votes, prev_seed, stakes, params, valid, exec);
  return valid;
}

void verify_votes_into(std::span<const Vote> votes,
                       const crypto::Hash256& prev_seed,
                       const std::vector<std::int64_t>& stakes,
                       const crypto::SortitionParams& params,
                       std::vector<std::uint8_t>& valid,
                       const util::InnerExecutor& exec) {
  valid.assign(votes.size(), 0);
  exec.for_each_chunk(votes.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      RS_REQUIRE(votes[i].voter < stakes.size(), "voter id out of range");
      valid[i] = verify_vote(votes[i], prev_seed, stakes[votes[i].voter],
                             params)
                     ? 1
                     : 0;
    }
  });
}

crypto::Hash256 coin_hash(const crypto::Hash256& vrf_output) {
  // Laid out once; each call hashes its own copy of the template.
  static const std::pair<crypto::Sha256Fixed, std::size_t> kLayout = [] {
    crypto::FixedHasher layout("roleshare.coin");
    const std::size_t slot = layout.add_hash_slot();
    return std::pair{layout.build_template(), slot};
  }();
  crypto::Sha256Fixed fixed = kLayout.first;
  crypto::write_hash_slot(fixed, kLayout.second, vrf_output);
  return crypto::Hash256(fixed.digest());
}

int quorum_winner(std::span<const std::uint64_t> weights,
                  std::span<const crypto::Hash256> values, double quorum) {
  RS_REQUIRE(weights.size() == values.size(),
             "quorum_winner: one weight per value");
  int best = -1;
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (static_cast<double>(weights[k]) <= quorum) continue;
    const auto b = static_cast<std::size_t>(best);
    if (best < 0 || weights[k] > weights[b] ||
        (weights[k] == weights[b] && values[k] < values[b]))
      best = static_cast<int>(k);
  }
  return best;
}

VoteCounter::VoteCounter(double quorum) : quorum_(quorum) {
  RS_REQUIRE(quorum > 0.0, "quorum must be positive");
}

bool VoteCounter::add(const Vote& vote) {
  if (std::find(seen_voters_.begin(), seen_voters_.end(), vote.voter) !=
      seen_voters_.end())
    return false;
  seen_voters_.push_back(vote.voter);
  total_weight_ += vote.weight;

  const auto k = static_cast<std::size_t>(
      std::find(values_.begin(), values_.end(), vote.value) - values_.begin());
  if (k == values_.size()) {
    values_.push_back(vote.value);
    weights_.push_back(0);
  }
  weights_[k] += vote.weight;
  coin_.add(coin_hash(vote.sortition.vrf.output));
  return true;
}

std::uint64_t VoteCounter::weight_for(const crypto::Hash256& value) const {
  const auto it = std::find(values_.begin(), values_.end(), value);
  return it == values_.end()
             ? 0
             : weights_[static_cast<std::size_t>(it - values_.begin())];
}

TallyResult VoteCounter::result() const {
  TallyResult r;
  r.total_weight = total_weight_;
  const int best = quorum_winner(weights_, values_, quorum_);
  if (best >= 0) {
    r.winner = values_[static_cast<std::size_t>(best)];
    r.winner_weight = weights_[static_cast<std::size_t>(best)];
  }
  return r;
}

std::optional<bool> VoteCounter::common_coin() const {
  if (!coin_.any) return std::nullopt;
  return coin_.bit();
}

TallyResult tally_votes(std::span<const Vote> votes, double quorum) {
  VoteCounter counter(quorum);
  for (const Vote& v : votes) counter.add(v);
  return counter.result();
}

}  // namespace roleshare::consensus
