// The round phases both round cores share (DESIGN.md §5, §10.1): the
// per-node core (round_engine.cpp) and the sampled core (sampled_round.cpp)
// open the round, apply the outcome rule, set the fractions, append the
// block, publish role snapshots and read a node's presence through these
// functions; the BA* rules they apply live in consensus/. No function here
// knows which core calls it. The per-node core's gossip batch is filled
// here too.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "consensus/binary_ba.hpp"
#include "game/strategy.hpp"
#include "ledger/block.hpp"
#include "net/gossip.hpp"
#include "sim/round_engine.hpp"
#include "util/rng.hpp"

namespace roleshare::sim {

/// A node's part in the round's gossip: it receives messages (online)
/// when live and not playing Offline, and forwards them (relay) when live
/// and cooperating.
struct Presence {
  bool online = false;
  bool relay = false;
};

inline Presence presence_of(bool live, game::Strategy strategy) {
  return {live && strategy != game::Strategy::Offline,
          live && strategy == game::Strategy::Cooperate};
}

/// The relay set of the network's current live mask and strategies.
void fill_relay_set(const Network& net, net::RelaySet& relay);

/// What a round reads from the chain and its RNG before its first phase.
struct RoundOpening {
  ledger::Round round = 0;
  /// The round's root stream, past the synchrony draw (split() reads seed
  /// material only, so no child depends on that draw).
  util::Rng rng;
  /// rng.split("gossip"): each (step, origin) propagation draws from
  /// gossip_root.split(step).split(origin), so the fan-out order cannot
  /// change any delay.
  util::Rng gossip_root;
  net::SynchronyState synchrony = net::SynchronyState::Strong;
  crypto::Hash256 prev_seed;
  crypto::Hash256 next_seed;
  crypto::Hash256 tip_hash;
  /// Appended when nothing is agreed; every node derives it locally.
  ledger::Block empty_block;
  crypto::Hash256 empty_hash;
};

/// Opens the next round: refuses a network without live stake, then draws
/// the synchrony state and reads the seeds and the tip.
RoundOpening open_round(Network& net, std::int64_t live_stake);

/// Marks a committee seat; a leader keeps its role.
inline void mark_committee(consensus::Role& role) {
  if (role == consensus::Role::Other) role = consensus::Role::Committee;
}

/// Index of the first proposal whose block hash is `h`, or -1.
inline int find_proposal(std::span<const crypto::Hash256> hashes,
                         const crypto::Hash256& h) {
  for (std::size_t p = 0; p < hashes.size(); ++p)
    if (hashes[p] == h) return static_cast<int>(p);
  return -1;
}

/// The outcome rule of §III-C for one view of the round: Final when the
/// FINAL step has a winner whose body arrived, else Tentative when
/// BinaryBA* concluded and its result's body arrived, else NoBlock. The
/// empty block's body always counts as arrived; `body_arrived(h)` answers
/// for every other hash.
template <typename BodyArrived>
NodeOutcome outcome_of(const std::optional<crypto::Hash256>& final_winner,
                       const consensus::BinaryBaState& ba,
                       const crypto::Hash256& empty_hash,
                       const BodyArrived& body_arrived) {
  const auto arrived = [&](const crypto::Hash256& h) {
    return h == empty_hash || body_arrived(h);
  };
  if (final_winner.has_value())
    return arrived(*final_winner) ? NodeOutcome::Final : NodeOutcome::NoBlock;
  if (ba.status() == consensus::BaStatus::ConcludedBlock ||
      ba.status() == consensus::BaStatus::ConcludedEmpty)
    return arrived(ba.result()) ? NodeOutcome::Tentative
                                : NodeOutcome::NoBlock;
  return NodeOutcome::NoBlock;
}

/// Sets the summary's three outcome fractions from the round's final and
/// tentative node counts, over its live_count (all 0 when it is 0).
void set_fractions(RoundSummary& summary, std::size_t finals,
                   std::size_t tentative);

/// Appends `agreed` or, when it is null, the empty block. Returns whether
/// the new tip is non-empty.
bool append_block(Network& net, const ledger::Block* agreed,
                  const ledger::Block& empty_block);

/// Swaps ws.true_roles and ws.observed_roles into the result's recycled
/// snapshots, with ws.stakes as reward stakes except 0 wherever ws.relay
/// is not online (offline nodes earn nothing); the snapshots' previous
/// buffers go back to the workspace.
void publish_roles(RoundWorkspace& ws, RoundResult& result);

/// What every gossip batch of a round shares: the engine under the
/// round's delay factor, the relay set, the reach classes built so far,
/// the round's counts and the executor.
struct RoundGossip {
  const net::GossipEngine& engine;
  const net::RelaySet& relay;
  net::ReachClasses& reach;
  GossipCounts& counts;
  const util::InnerExecutor& exec;
};

/// Fills `batch` from batch.labels, every item's origin: classifies the
/// origins serially in item order (building reach classes, counting each
/// propagation), derives the item streams step_stream.split(origin) in
/// one block, and runs Dijkstra for the uncertified items over the
/// executor. A certified item's stream is never drawn.
void fill_gossip_batch(GossipBatch& batch, const RoundGossip& gossip,
                       net::TimeMs timeout, const util::Rng& step_stream);

}  // namespace roleshare::sim
