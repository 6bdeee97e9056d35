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

std::size_t GossipBatch::capacity_bytes() const {
  std::size_t total = vec_bytes(reach_class) + vec_bytes(rows);
  total += vec_bytes(exact) + vec_bytes(labels) + vec_bytes(seeds);
  total += nested_bytes(arrivals);
  for (const net::GossipScratch& s : scratch) total += vec_bytes(s.frontier);
  return total;
}

std::size_t SparseRoundWorkspace::capacity_bytes() const {
  return vec_bytes(touched_epoch) + vec_bytes(touched_slot) +
         vec_bytes(seat_epoch) + vec_bytes(seat_slot) + vec_bytes(members) +
         vec_bytes(weights) + vec_bytes(origin_labels) +
         vec_bytes(origin_seeds) + vec_bytes(proposer_priorities) +
         vec_bytes(proposal_arrivals) + vec_bytes(proposal_hashes) +
         vec_bytes(proposal_blocks);
}

std::size_t RoundWorkspace::capacity_bytes() const {
  std::size_t total = 0;
  total += vec_bytes(stakes);
  total += vec_bytes(relay.relays) + vec_bytes(relay.online);
  total += vec_bytes(observed_roles) + vec_bytes(true_roles);
  total += vec_bytes(proposer_draws);
  total += vec_bytes(proposals) + vec_bytes(proposal_hashes);
  total += proposal_gossip.capacity_bytes();
  total += vec_bytes(best_idx);
  total += reach.capacity_bytes();
  total += vec_bytes(step.committee.members) + vec_bytes(step.draws);
  total += vec_bytes(step.votes) + step.gossip.capacity_bytes();
  total += vec_bytes(step.valid) + vec_bytes(step.counted_rows);
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
