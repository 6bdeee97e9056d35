// The sampled (population-scale) round path — DESIGN.md §10.
//
// The paper-faithful engine (round_engine.cpp) evaluates every node's VRF
// per step, so a round is inherently Ω(N): selection is only knowable by
// hashing every key. That is the right model at paper scale and the wrong
// one at a million accounts over thousands of rounds. This header defines
// the CommitteeModel::Sampled round semantics, evaluable two ways that are
// bit-identical by contract:
//
//   dense   RoundEngine::run_round_into with committee_model == Sampled
//           rebuilds a SparseRoundContext from the ledger (O(N)), runs the
//           sparse core on it and expands full per-node outcome and role
//           vectors (expand_sparse_into).
//   sparse  RoundEngine::run_round_sparse_into on a caller-owned context
//           that absorbs reward/churn deltas in O(log N) each, so a round
//           touches O(committee · log N) state.
//
// That one core (sampled_round.cpp) shares its round phases with the
// per-node core through round_phases.hpp.
//
// Sampled semantics (the spec both paths implement):
//   - Per step, tau seats are drawn with replacement from the live stake
//     distribution on the stream round_rng.split("election").split(step);
//     a node's vote weight is the seats it won. This is exactly the
//     sub-user accounting sim/reward_experiment.cpp has always used for
//     committee stakes, promoted to an engine mode.
//   - Gossip is mean-field: one population arrival time per (step, origin)
//     message, drawn on the same per-origin streams the dense engine uses
//     (gossip_root.split(step), seeds derived per origin) — hop count from
//     the relay fraction, per-hop delays from the network's UniformDelay
//     scaled by the synchrony factor. Every online node shares the same
//     delay-filtered view, so one representative BA state machine stands
//     in for the whole online population; offline and departed nodes see
//     nothing, exactly as in the dense engine's outcome rules.
//   - Proposer priorities and vote coin hashes are synthesized per
//     (round, step, node) from the chain seed, mirroring the VRF-derived
//     quantities they replace.
//
// What the model gives up relative to PerNodeVrf — per-receiver delay
// heterogeneity and per-node VRF membership — it gives up identically in
// both evaluations; everything the long-horizon economy measures (who is
// elected, who gets paid, how stake compounds and concentrates) is
// preserved. tests/prop/prop_sparse.cpp locks dense == sparse under
// random configs, policies and churn.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/params.hpp"
#include "consensus/roles.hpp"
#include "crypto/hash.hpp"
#include "ledger/block.hpp"
#include "ledger/types.hpp"
#include "net/sim_time.hpp"
#include "net/synchrony.hpp"
#include "util/stake_index.hpp"

namespace roleshare::sim {

class Network;
struct RoundResult;
struct RoundWorkspace;

/// Per-node outcome of one round (the Fig-3 categories).
enum class NodeOutcome : std::uint8_t { Final, Tentative, NoBlock };

/// The aggregates both round results report: RoundResult
/// (round_engine.hpp) and SparseRoundResult (below).
struct RoundSummary {
  ledger::Round round = 0;
  /// Nodes present (live) this round — round-varying under churn; the
  /// denominator of the outcome fractions below. Equals the population on
  /// churn-free networks.
  std::size_t live_count = 0;
  /// Fractions over the live population (set_fractions, round_phases.hpp).
  double final_fraction = 0.0;
  double tentative_fraction = 0.0;
  double none_fraction = 0.0;
  /// Whether the canonical chain advanced with a non-empty block.
  bool non_empty_block = false;
  /// Number of proposals actually broadcast.
  std::size_t proposals = 0;
  /// Synchrony state the round ran under.
  net::SynchronyState synchrony = net::SynchronyState::Strong;
};

/// One node the round actually touched (elected as proposer or committee
/// member in any step), with the roles and reward stake the dense path
/// would record for it. `reward_stake` is the node's stake in Algos, 0
/// when it was offline this round (offline nodes earn nothing).
struct SparseNodeRole {
  ledger::NodeId node = 0;
  consensus::Role role_true = consensus::Role::Other;
  consensus::Role role_observed = consensus::Role::Other;
  std::int64_t reward_stake = 0;
};

/// The sparse round's output: the summary, the online population and
/// its shared outcome, plus the touched-node role list.
/// expand_sparse_into materializes the equivalent full RoundResult.
struct SparseRoundResult : RoundSummary {
  /// Live nodes that are not playing Offline — the population whose
  /// outcome is `online_outcome`; everyone else is NoBlock.
  std::size_t online_count = 0;
  /// Total stake (Algos) of online nodes: S_L + S_M + S_K of the round's
  /// reward snapshot without walking the population.
  std::int64_t online_stake = 0;
  /// The representative outcome every online node shares.
  NodeOutcome online_outcome = NodeOutcome::NoBlock;
  /// First-touch order; each node appears once.
  std::vector<SparseNodeRole> touched;
};

/// Caller-owned cross-round state: the incremental stake index plus the
/// population counters the mean-field gossip model needs. Initialized
/// once in O(N); every subsequent mutation flows through refresh_node in
/// O(log N) — reward credits, churn arrivals/departures, strategy flips.
class SparseRoundContext {
 public:
  /// Full O(N) (re)build from the network's current accounts, live mask
  /// and strategies. The per-round deltas go through refresh_node.
  void init_from(const Network& net);

  /// Re-reads node v's stake, liveness and strategy from the network and
  /// folds the delta into the index and counters. O(log N). Call after
  /// crediting a reward, toggling liveness, or changing v's strategy.
  void refresh_node(const Network& net, ledger::NodeId v);

  std::size_t size() const { return index_.size(); }
  const util::StakeIndex& index() const { return index_; }
  bool online(ledger::NodeId v) const { return online_[v] != 0; }
  bool relay(ledger::NodeId v) const { return relay_[v] != 0; }
  std::size_t online_count() const { return online_count_; }
  std::size_t relay_count() const { return relay_count_; }
  std::int64_t online_stake() const { return online_stake_; }

 private:
  util::StakeIndex index_;  // live stake in Algos; departed nodes are 0
  std::vector<std::uint8_t> online_;  // live && strategy != Offline
  std::vector<std::uint8_t> relay_;   // live && strategy == Cooperate
  std::size_t online_count_ = 0;
  std::size_t relay_count_ = 0;
  std::int64_t online_stake_ = 0;
};

/// Reusable sparse scratch (the sparse analogue of RoundWorkspace):
/// touched-node bookkeeping via epoch-stamped marks (no O(N) clearing),
/// per-step committee buffers, and the derive_seeds label/seed blocks.
/// All vectors keep their capacity across rounds, so the steady-state
/// round allocates nothing beyond the chain append.
struct SparseRoundWorkspace {
  // Per-round touched set: touched_epoch[v] == round_epoch marks v as
  // already in `touched` at slot touched_slot[v].
  std::vector<std::uint64_t> touched_epoch;
  std::vector<std::uint32_t> touched_slot;
  std::uint64_t round_epoch = 0;

  // Per-step seat dedup, same trick with its own epoch counter.
  std::vector<std::uint64_t> seat_epoch;
  std::vector<std::uint32_t> seat_slot;
  std::uint64_t elect_epoch = 0;

  // Committee of the current step, first-draw order.
  std::vector<ledger::NodeId> members;
  std::vector<std::uint64_t> weights;

  // derive_seeds blocks for the per-origin gossip streams (proposer or
  // voter ids).
  std::vector<std::uint64_t> origin_labels;
  std::vector<std::uint64_t> origin_seeds;

  // Proposal-phase scratch: the broadcasts of the cooperating winners in
  // origin_labels as parallel arrays, plus the materialized blocks.
  std::vector<std::uint64_t> proposer_priorities;
  std::vector<net::TimeMs> proposal_arrivals;
  std::vector<crypto::Hash256> proposal_hashes;
  std::vector<ledger::Block> proposal_blocks;

  /// Bytes across every buffer — the memory-accounting hook round_latency
  /// reports beside the dense workspace_bytes.
  std::size_t capacity_bytes() const;
};

/// Mean-field hop count: how many relay hops a message needs to blanket
/// an online population of `online` nodes when `relays` of them forward
/// with the given fan-out. 0 means unreachable (no relays); capped at 64
/// hops so a vanishing relay fraction degrades to "very late", not "very
/// expensive". Shared by both evaluations — it IS the gossip model.
std::uint32_t mean_field_hops(std::size_t online, std::size_t relays,
                              std::size_t fan_out);

/// Materializes the full-population RoundResult the dense path reports:
/// per-node outcomes (online => the representative outcome), observed and
/// true role snapshots with offline-zeroed reward stakes, and the copied
/// summary. O(N); buffers come from `ws`.
void expand_sparse_into(const Network& net, const SparseRoundResult& sparse,
                        RoundResult& result, RoundWorkspace& ws);

}  // namespace roleshare::sim
