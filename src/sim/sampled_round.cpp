#include "sim/sampled_round.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "consensus/binary_ba.hpp"
#include "consensus/proposal.hpp"
#include "consensus/reduction.hpp"
#include "consensus/votes.hpp"
#include "crypto/hash.hpp"
#include "ledger/block.hpp"
#include "net/sim_time.hpp"
#include "sim/network.hpp"
#include "sim/round_engine.hpp"
#include "sim/round_phases.hpp"
#include "sim/round_workspace.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace {

using consensus::Role;
using crypto::Hash256;
using game::Strategy;
using ledger::NodeId;

/// Synthesized sortition output for a sampled seat winner — the stand-in
/// for the VRF output the per-node model would carry on its votes. Feeds
/// the common-coin hash exactly where vrf.output would.
Hash256 sampled_vrf_output(const Hash256& prev_seed, ledger::Round round,
                           std::uint32_t step, NodeId node) {
  return crypto::HashBuilder("roleshare.sampled.vrf")
      .add(prev_seed)
      .add_u64(round)
      .add_u64(step)
      .add_u64(node)
      .build();
}

/// Synthesized proposer priority (the PerNodeVrf model's best sub-user
/// priority hash). Highest wins, ties toward the lower block hash.
std::uint64_t sampled_priority(const Hash256& prev_seed, ledger::Round round,
                               NodeId node) {
  return crypto::HashBuilder("roleshare.sampled.priority")
      .add(prev_seed)
      .add_u64(round)
      .add_u64(node)
      .build()
      .prefix_u64();
}

/// One mean-field population arrival: `hops` per-hop delays from the
/// origin's private stream, scaled by the round's synchrony factor.
/// hops == 0 means no relay path exists.
net::TimeMs mean_field_arrival(util::Rng& origin_rng, const Network& net,
                               std::uint32_t hops, double delay_factor) {
  if (hops == 0) return net::kNever;
  net::TimeMs arrival = 0.0;
  for (std::uint32_t h = 0; h < hops; ++h)
    arrival += net.delays().sample(origin_rng) * delay_factor;
  return arrival;
}

/// Adds node v to the round's touched set (first-touch order) and returns
/// its slot. reward_stake is captured at first touch: stake in Algos, 0
/// when offline — the dense path's reward-snapshot rule.
std::size_t touch(SparseRoundWorkspace& ws, SparseRoundResult& out,
                  const SparseRoundContext& ctx, NodeId v) {
  if (ws.touched_epoch[v] == ws.round_epoch) return ws.touched_slot[v];
  ws.touched_epoch[v] = ws.round_epoch;
  ws.touched_slot[v] = static_cast<std::uint32_t>(out.touched.size());
  SparseNodeRole entry;
  entry.node = v;
  entry.reward_stake = ctx.online(v) ? ctx.index().stake_of(v) : 0;
  out.touched.push_back(entry);
  return ws.touched_slot[v];
}

/// Draws `tau` seats with replacement from the stake index on `stream`,
/// collecting the distinct winners in first-draw order with their seat
/// counts. O(tau · log N).
void elect_into(const SparseRoundContext& ctx, util::Rng stream,
                std::uint64_t tau, SparseRoundWorkspace& ws) {
  ++ws.elect_epoch;
  ws.members.clear();
  ws.weights.clear();
  for (std::uint64_t seat = 0; seat < tau; ++seat) {
    const std::size_t v = ctx.index().sample(stream);
    if (ws.seat_epoch[v] != ws.elect_epoch) {
      ws.seat_epoch[v] = ws.elect_epoch;
      ws.seat_slot[v] = static_cast<std::uint32_t>(ws.members.size());
      ws.members.push_back(static_cast<NodeId>(v));
      ws.weights.push_back(0);
    }
    ++ws.weights[ws.seat_slot[v]];
  }
}

}  // namespace

std::uint32_t mean_field_hops(std::size_t online, std::size_t relays,
                              std::size_t fan_out) {
  if (relays == 0 || online == 0) return 0;
  if (online <= 1) return 1;
  // Branching factor of the relay flood: each hop multiplies coverage by
  // 1 + fan_out * (relay fraction). ceil(log_b(online)) hops blanket the
  // online population; the cap keeps a vanishing relay fraction from
  // turning into thousands of per-message delay draws.
  const double rho = static_cast<double>(relays) / static_cast<double>(online);
  const double b = 1.0 + static_cast<double>(fan_out) * rho;
  const double hops =
      std::ceil(std::log(static_cast<double>(online)) / std::log(b));
  if (!(hops >= 1.0)) return 1;
  return static_cast<std::uint32_t>(std::min(hops, 64.0));
}

void SparseRoundContext::init_from(const Network& net) {
  const std::size_t n = net.node_count();
  online_.assign(n, 0);
  relay_.assign(n, 0);
  online_count_ = 0;
  relay_count_ = 0;
  online_stake_ = 0;
  const std::vector<Strategy>& strategies = net.strategies();
  // Refill the index's own leaf array, so no second N-entry array exists.
  std::vector<std::int64_t> stakes = index_.release_leaves();
  net.accounts().stakes_into(stakes);
  for (std::size_t v = 0; v < n; ++v) {
    const bool live = net.live(static_cast<NodeId>(v));
    if (!live) stakes[v] = 0;
    const Presence p = presence_of(live, strategies[v]);
    online_[v] = p.online;
    relay_[v] = p.relay;
    online_count_ += p.online ? 1 : 0;
    relay_count_ += p.relay ? 1 : 0;
    if (p.online) online_stake_ += stakes[v];
  }
  index_.rebuild(std::move(stakes));
}

void SparseRoundContext::refresh_node(const Network& net, NodeId v) {
  RS_REQUIRE(static_cast<std::size_t>(v) < index_.size(),
             "sparse context: node out of range");
  const bool live = net.live(v);
  const std::int64_t stake = live ? net.accounts().stake(v) : 0;
  const auto [online, relay] = presence_of(live, net.strategies()[v]);

  const std::int64_t old_stake = index_.stake_of(v);
  const bool was_online = online_[v] != 0;
  if (was_online) online_stake_ -= old_stake;
  if (online) online_stake_ += stake;
  online_count_ += (online ? 1 : 0) - (was_online ? 1 : 0);
  relay_count_ += (relay ? 1 : 0) - (relay_[v] != 0 ? 1 : 0);
  online_[v] = online ? 1 : 0;
  relay_[v] = relay ? 1 : 0;
  index_.update(v, stake);
}

void RoundEngine::run_round_sparse_into(SparseRoundResult& out,
                                        const SparseRoundContext& ctx,
                                        SparseRoundWorkspace& ws) {
  Network& net = network_;
  RS_REQUIRE(params_.committee_model == consensus::CommitteeModel::Sampled,
             "sparse round path requires CommitteeModel::Sampled");
  const std::size_t n = net.node_count();
  RS_REQUIRE(ctx.size() == n, "sparse context population mismatch");

  // Same stream tree as the dense engine, plus seat draws on
  // split("election") per step (DESIGN.md §4, §10).
  const RoundOpening open = open_round(net, ctx.index().total());
  const ledger::Round round = open.round;
  const Hash256& prev_seed = open.prev_seed;
  const Hash256& empty_hash = open.empty_hash;
  const util::Rng election_root = open.rng.split("election");

  if (ws.touched_epoch.size() != n) {
    ws.touched_epoch.assign(n, 0);
    ws.touched_slot.assign(n, 0);
    ws.seat_epoch.assign(n, 0);
    ws.seat_slot.assign(n, 0);
    ws.round_epoch = 0;
    ws.elect_epoch = 0;
  }
  ++ws.round_epoch;
  out.touched.clear();

  out.round = round;
  out.live_count = net.live_count();
  out.online_count = ctx.online_count();
  out.online_stake = ctx.online_stake();
  out.synchrony = open.synchrony;
  out.online_outcome = NodeOutcome::NoBlock;

  const double delay_factor = net.synchrony().delay_factor();
  const std::uint32_t hops = mean_field_hops(
      ctx.online_count(), ctx.relay_count(), net.config().fan_out);

  const std::vector<Strategy>& strategies = net.strategies();

  // ---- Block proposal phase -------------------------------------------
  elect_into(ctx, election_root.split(consensus::kProposerStep),
             params_.expected_proposer_stake, ws);

  // Cooperating winners broadcast; the best-priority proposal whose
  // mean-field arrival beats the proposal timeout becomes the shared
  // view. The broadcasts live as parallel workspace arrays so a steady
  // round allocates nothing here.
  ws.proposer_priorities.clear();
  ws.proposal_arrivals.clear();
  ws.proposal_hashes.clear();
  ws.proposal_blocks.clear();

  const util::Rng proposer_stream =
      open.gossip_root.split(consensus::kProposerStep);
  ws.origin_labels.clear();
  for (const NodeId v : ws.members) {
    const std::size_t slot = touch(ws, out, ctx, v);
    out.touched[slot].role_true = Role::Leader;
    if (strategies[v] != Strategy::Cooperate) continue;
    out.touched[slot].role_observed = Role::Leader;
    ws.origin_labels.push_back(v);
  }
  const std::size_t np = ws.origin_labels.size();
  ws.origin_seeds.resize(np);
  proposer_stream.derive_seeds(ws.origin_labels, ws.origin_seeds);
  for (std::size_t p = 0; p < np; ++p) {
    const auto v = static_cast<NodeId>(ws.origin_labels[p]);
    util::Rng prng(ws.origin_seeds[p]);
    ws.proposer_priorities.push_back(sampled_priority(prev_seed, round, v));
    ws.proposal_arrivals.push_back(
        mean_field_arrival(prng, net, hops, delay_factor));
    ws.proposal_blocks.push_back(ledger::Block::make(
        round, open.tip_hash, open.next_seed, net.keys()[v].public_key()));
    ws.proposal_hashes.push_back(ws.proposal_blocks.back().hash());
  }
  out.proposals = np;

  // The shared view: best timely proposal by (priority, lower hash).
  int best = -1;
  for (std::size_t p = 0; p < np; ++p) {
    if (ws.proposal_arrivals[p] > params_.proposal_timeout_ms) continue;
    const auto b = static_cast<std::size_t>(best);
    if (best < 0 ||
        consensus::outranks(ws.proposer_priorities[p], ws.proposal_hashes[p],
                            ws.proposer_priorities[b],
                            ws.proposal_hashes[b])) {
      best = static_cast<int>(p);
    }
  }

  // ---- Representative vote steps ---------------------------------------
  // Every online node shares the same view, so one tally serves the whole
  // population: the summed weight of the timely votes for the one value,
  // through consensus::quorum_winner, and the common coin of their coin
  // hashes — the rules run_vote_step applies per node.
  const auto vote_step = [&](std::uint32_t step, std::uint64_t tau,
                             double quorum,
                             const std::optional<Hash256>& value)
      -> StepOutcome {
    StepOutcome result;
    elect_into(ctx, election_root.split(step), tau, ws);
    const util::Rng step_stream = open.gossip_root.split(step);
    ws.origin_labels.clear();
    for (const NodeId v : ws.members) {
      const std::size_t slot = touch(ws, out, ctx, v);
      mark_committee(out.touched[slot].role_true);
      if (strategies[v] != Strategy::Cooperate || !value.has_value()) continue;
      mark_committee(out.touched[slot].role_observed);
      ws.origin_labels.push_back(v);
    }
    if (!value.has_value() || ws.origin_labels.empty()) return result;

    // One arrival per vote, on the voter's (step, origin) stream; the
    // voter's weight is the seats it won (seat_slot bookkeeping).
    const std::size_t nv = ws.origin_labels.size();
    ws.origin_seeds.resize(nv);
    step_stream.derive_seeds(ws.origin_labels, ws.origin_seeds);

    std::uint64_t tally = 0;
    consensus::CommonCoin coin;
    for (std::size_t j = 0; j < nv; ++j) {
      const NodeId voter = static_cast<NodeId>(ws.origin_labels[j]);
      util::Rng vrng(ws.origin_seeds[j]);
      const net::TimeMs arrival =
          mean_field_arrival(vrng, net, hops, delay_factor);
      if (arrival > params_.step_timeout_ms) continue;
      tally += ws.weights[ws.seat_slot[voter]];
      coin.add(consensus::coin_hash(
          sampled_vrf_output(prev_seed, round, step, voter)));
    }
    if (consensus::quorum_winner({&tally, 1}, {&*value, 1}, quorum) == 0)
      result.winner = value;
    result.coin = coin.bit();
    return result;
  };

  const double step_quorum = params_.step_quorum();
  const std::optional<Hash256> best_proposal =
      best >= 0 ? std::optional<Hash256>(
                      ws.proposal_hashes[static_cast<std::size_t>(best)])
                : std::nullopt;

  const StepOutcome step1 = vote_step(
      consensus::kReductionStep1, params_.expected_step_stake, step_quorum,
      consensus::reduction_step1_value(best_proposal, empty_hash));
  const StepOutcome step2 =
      vote_step(consensus::kReductionStep2, params_.expected_step_stake,
                step_quorum, step1.winner.value_or(empty_hash));

  consensus::BinaryBaState ba(step2.winner.value_or(empty_hash), empty_hash,
                              params_.max_binary_iterations);
  const std::uint32_t last_step =
      consensus::kFirstBinaryStep + 3 * params_.max_binary_iterations;
  for (std::uint32_t step = consensus::kFirstBinaryStep;
       step < last_step && out.online_count > 0 && ba.running(); ++step) {
    const std::optional<Hash256> value =
        ba.step_number() == step ? std::optional<Hash256>(ba.vote_value())
                                 : std::nullopt;
    const StepOutcome s =
        vote_step(step, params_.expected_step_stake, step_quorum, value);
    if (ba.step_number() == step) ba.advance(s.winner, s.coin);
  }

  const StepOutcome final_step =
      vote_step(consensus::kFinalStep, params_.expected_final_stake,
                params_.final_quorum(), ba.final_vote());

  // ---- Outcome ---------------------------------------------------------
  if (out.online_count > 0) {
    out.online_outcome = outcome_of(
        final_step.winner, ba, empty_hash, [&](const Hash256& h) {
          const int p = find_proposal(ws.proposal_hashes, h);
          return p >= 0 && ws.proposal_arrivals[static_cast<std::size_t>(p)] <
                               net::kNever;
        });
  }

  const std::size_t online = out.online_count;
  set_fractions(out, out.online_outcome == NodeOutcome::Final ? online : 0,
                out.online_outcome == NodeOutcome::Tentative ? online : 0);

  // ---- Canonical chain append -----------------------------------------
  // The dense rule is the plurality over online nodes' conclusions; with a
  // shared view there is exactly one conclusion (or none when nobody is
  // online).
  const ledger::Block* agreed = nullptr;
  if (out.online_count > 0 &&
      ba.status() == consensus::BaStatus::ConcludedBlock) {
    const int p = find_proposal(ws.proposal_hashes, ba.result());
    if (p >= 0) agreed = &ws.proposal_blocks[static_cast<std::size_t>(p)];
  }
  out.non_empty_block = append_block(net, agreed, open.empty_block);
}

void expand_sparse_into(const Network& net, const SparseRoundResult& sparse,
                        RoundResult& result, RoundWorkspace& ws) {
  const std::size_t n = net.node_count();
  static_cast<RoundSummary&>(result) = sparse;

  fill_relay_set(net, ws.relay);
  result.outcomes.assign(n, NodeOutcome::NoBlock);
  for (std::size_t v = 0; v < n; ++v)
    if (ws.relay.online[v]) result.outcomes[v] = sparse.online_outcome;
  ws.observed_roles.assign(n, Role::Other);
  ws.true_roles.assign(n, Role::Other);
  for (const SparseNodeRole& t : sparse.touched) {
    ws.true_roles[t.node] = t.role_true;
    ws.observed_roles[t.node] = t.role_observed;
  }
  net.accounts().stakes_into(ws.stakes);
  publish_roles(ws, result);
}

}  // namespace roleshare::sim
