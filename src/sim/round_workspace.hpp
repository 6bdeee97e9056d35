// Reusable working memory for RoundEngine::run_round_into.
//
// Every buffer the engine needs while driving a round lives here, owned by
// the caller and recycled across rounds: vectors are clear()-and-refilled,
// never reconstructed, so once each buffer has reached its high-water mark
// a steady-state round performs no heap allocation for engine working
// state. (The one residual allocation is inherent to producing *new*
// state: the block appended to the growing chain.)
//
// Ownership contract: a workspace belongs to one engine invocation at a
// time — run_round_into may scribble over every field. Between calls the
// contents are meaningless; only the capacity is of value. A workspace can
// be shared across engines and configurations freely: every buffer is
// (re)sized from the current network before use, so reusing a "dirty"
// workspace from a different run is safe and bit-identical to starting
// from a fresh one.
//
// The round's proposals and each step's votes are one GossipBatch each,
// filled by fill_gossip_batch (round_phases.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "consensus/binary_ba.hpp"
#include "consensus/committee.hpp"
#include "consensus/proposal.hpp"
#include "consensus/roles.hpp"
#include "consensus/votes.hpp"
#include "crypto/hash.hpp"
#include "crypto/sortition.hpp"
#include "net/gossip.hpp"
#include "net/sim_time.hpp"
#include "sim/sampled_round.hpp"

namespace roleshare::sim {

/// Per-node outcome of one voting step: the quorum winner this node
/// counted (nullopt = timeout) and the common coin it observed.
struct StepOutcome {
  std::optional<crypto::Hash256> winner;
  bool coin = false;
};

/// One certify-or-Dijkstra gossip batch: the proposals of a round or the
/// votes of one step (DESIGN.md §5). An item whose origin the reachability
/// certificate covers reads its reach class's mask; every other item runs
/// Dijkstra on its own (step, origin) stream into an arrival row.
struct GossipBatch {
  /// reach_class of an item that runs exact Dijkstra (no certificate).
  static constexpr std::uint32_t kExact =
      std::numeric_limits<std::uint32_t>::max();
  /// Per item: its origin (the caller's input, the derive_seeds label of
  /// its stream), the seed derived from it, its reach class or kExact,
  /// and the arrival row of an exact item (nullptr otherwise).
  std::vector<std::uint64_t> labels;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint32_t> reach_class;
  std::vector<const net::TimeMs*> rows;
  /// The exact items, in item order.
  std::vector<std::uint32_t> exact;
  /// Pools indexed by exact item: arrival rows and Dijkstra scratch.
  /// Grown but never shrunk, so inner capacity survives across batches.
  std::vector<std::vector<net::TimeMs>> arrivals;
  std::vector<net::GossipScratch> scratch;

  std::size_t capacity_bytes() const;
};

/// Working memory of one voting step (reused by every step of every round).
struct StepWorkspace {
  consensus::Committee committee;
  std::vector<crypto::SortitionResult> draws;
  std::vector<consensus::Vote> votes;
  /// One item per vote, in vote order.
  GossipBatch gossip;
  std::vector<std::uint8_t> valid;
  /// Flat tally tables, computed once per step (not once per node): the
  /// counted_* arrays hold the valid uncertified votes in vote order, and
  /// values the distinct voted values of all valid votes.
  std::vector<const net::TimeMs*> counted_rows;  // arrival row per counted vote
  std::vector<std::uint64_t> counted_weight;
  std::vector<std::uint32_t> counted_value_id;
  std::vector<crypto::Hash256> counted_coin_hash;
  std::vector<crypto::Hash256> values;
  /// Valid certified votes, folded per reach class: slot s covers the
  /// nodes of slot_masks[s] and carries per-value weight sums
  /// slot_weights[s * values.size() + k] and the minimum coin hash.
  std::vector<std::uint32_t> slot_class;
  std::vector<const std::uint8_t*> slot_masks;
  std::vector<std::uint64_t> slot_weights;
  std::vector<crypto::Hash256> slot_coin_hash;
  /// Per-chunk weight accumulators: chunk c uses the slice
  /// [c * values.size(), (c+1) * values.size()).
  std::vector<std::uint64_t> tally_weights;
};

/// Gossip work of one round: propagations the reachability certificate
/// decided (no arrival times, no delay draws), propagations that ran
/// Dijkstra, and reach classes built. Votes and proposals both count.
struct GossipCounts {
  std::size_t certified = 0;
  std::size_t exact = 0;
  std::size_t classes = 0;
};

/// All working memory of one round. See the file comment for the
/// ownership and reuse contract.
struct RoundWorkspace {
  std::vector<std::int64_t> stakes;
  net::RelaySet relay;
  std::vector<consensus::Role> observed_roles;
  std::vector<consensus::Role> true_roles;

  // Proposal phase.
  std::vector<crypto::SortitionResult> proposer_draws;
  std::vector<consensus::BlockProposal> proposals;
  /// Block hashes computed once per proposal, not once per (node,
  /// proposal).
  std::vector<crypto::Hash256> proposal_hashes;
  /// One item per proposal, in proposal order.
  GossipBatch proposal_gossip;
  std::vector<int> best_idx;

  /// Reach classes of the round's relay set, shared by every step.
  net::ReachClasses reach;

  // Voting steps.
  StepWorkspace step;
  std::vector<StepOutcome> step1;
  std::vector<StepOutcome> step2;
  std::vector<StepOutcome> ba_out;
  std::vector<StepOutcome> finals;

  // BinaryBA* state.
  std::vector<consensus::BinaryBaState> ba;
  std::vector<int> post_votes;

  // Conclusion and snapshots.
  std::vector<std::pair<crypto::Hash256, std::size_t>> conclusion_counts;
  std::vector<std::int64_t> reward_stakes;
  std::vector<std::int64_t> reward_stakes_true;

  // Sampled-model state (CommitteeModel::Sampled): the dense evaluation
  // rebuilds `sampled_context` from the ledger every round, calls
  // run_round_sparse_into on these buffers and expands the RoundResult.
  SparseRoundContext sampled_context;
  SparseRoundWorkspace sampled_scratch;
  SparseRoundResult sampled_result;

  /// The last round's gossip counts: the one field that still means
  /// something after run_round_into returns (all zero on the Sampled
  /// path, which runs no gossip).
  GossipCounts gossip_counts;

  /// Total bytes currently reserved across the workspace's buffers — the
  /// round engine's steady-state working set, reported by bench/round_latency.
  std::size_t capacity_bytes() const;
};

}  // namespace roleshare::sim
