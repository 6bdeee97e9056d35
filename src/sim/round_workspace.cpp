#include "sim/round_workspace.hpp"

namespace roleshare::sim {

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
std::size_t nested_bytes(const std::vector<std::vector<T>>& v) {
  std::size_t total = v.capacity() * sizeof(std::vector<T>);
  for (const auto& inner : v) total += vec_bytes(inner);
  return total;
}

}  // namespace

std::size_t RoundWorkspace::capacity_bytes() const {
  std::size_t total = 0;
  total += vec_bytes(stakes);
  total += vec_bytes(relay.relays) + vec_bytes(relay.online);
  total += vec_bytes(observed_roles) + vec_bytes(true_roles);
  total += vec_bytes(proposer_draws);
  total += vec_bytes(proposals) + vec_bytes(proposal_hashes);
  total += vec_bytes(proposer_labels) + vec_bytes(proposer_seeds);
  total += vec_bytes(proposal_class) + vec_bytes(proposal_rows);
  total += vec_bytes(proposal_exact);
  total += nested_bytes(proposal_arrivals);
  for (const net::GossipScratch& s : proposal_scratch)
    total += vec_bytes(s.frontier);
  total += vec_bytes(best_idx);
  total += reach.capacity_bytes();
  total += vec_bytes(step.committee.members) + vec_bytes(step.draws);
  total += vec_bytes(step.votes);
  total += vec_bytes(step.origin_labels) + vec_bytes(step.origin_seeds);
  total += vec_bytes(step.vote_class) + vec_bytes(step.exact);
  total += nested_bytes(step.arrivals);
  for (const net::GossipScratch& s : step.scratch)
    total += vec_bytes(s.frontier);
  total += vec_bytes(step.valid) + vec_bytes(step.counted);
  total += vec_bytes(step.counted_rows);
  total += vec_bytes(step.counted_weight) + vec_bytes(step.counted_value_id);
  total += vec_bytes(step.counted_coin_hash) + vec_bytes(step.values);
  total += vec_bytes(step.slot_class) + vec_bytes(step.slot_masks);
  total += vec_bytes(step.slot_weights) + vec_bytes(step.slot_coin_hash);
  total += vec_bytes(step.tally_weights);
  total += vec_bytes(step1) + vec_bytes(step2);
  total += vec_bytes(ba_out) + vec_bytes(finals);
  total += vec_bytes(ba) + vec_bytes(post_votes);
  total += vec_bytes(conclusion_counts);
  total += vec_bytes(reward_stakes) + vec_bytes(reward_stakes_true);
  total += sampled_scratch.capacity_bytes();
  total += vec_bytes(sampled_result.touched);
  return total;
}

}  // namespace roleshare::sim
