#include "sim/round_engine.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "consensus/binary_ba.hpp"
#include "consensus/proposal.hpp"
#include "consensus/reduction.hpp"
#include "consensus/roles.hpp"
#include "consensus/votes.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace {

using consensus::Role;
using crypto::Hash256;
using game::Strategy;
using ledger::NodeId;

/// Class slot of a propagation that runs exact Dijkstra (no certificate).
constexpr std::uint32_t kExact = std::numeric_limits<std::uint32_t>::max();

/// The reach class of `origin` when the certificate proves its message
/// reaches every reachable node by `timeout`, else kExact. Counts the
/// propagation either way.
std::uint32_t certified_class(const net::GossipEngine& gossip,
                              const net::RelaySet& relay,
                              net::ReachClasses& reach, NodeId origin,
                              net::TimeMs timeout, GossipCounts& counts) {
  const std::uint32_t c = reach.classify(gossip, relay, origin);
  if (c != net::ReachClasses::kNone &&
      gossip.certifies(reach.depth_bound(origin), timeout)) {
    ++counts.certified;
    return c;
  }
  ++counts.exact;
  return kExact;
}

/// Everything one voting step needs from the round. Per-node state is
/// threaded through as contiguous arrays (structure-of-arrays): the step
/// loops index stakes/strategies/online/roles directly instead of going
/// through per-node accessor calls.
struct StepContext {
  const consensus::ConsensusParams* params = nullptr;
  const std::vector<crypto::KeyPair>* keys = nullptr;
  const std::vector<std::int64_t>* stakes = nullptr;
  std::span<const Strategy> strategies;
  std::span<const std::uint8_t> online;
  std::int64_t total_stake = 0;
  std::size_t n = 0;
  ledger::Round round = 0;
  Hash256 prev_seed;
  const net::RelaySet* relay_set = nullptr;
  const net::GossipEngine* gossip = nullptr;
  /// The round's reach classes (classified serially, read in parallel)
  /// and its gossip counts.
  net::ReachClasses* reach = nullptr;
  GossipCounts* counts = nullptr;
  /// Root of the round's gossip randomness; each (step, origin) propagation
  /// draws from the independent stream gossip_root.split(step).split(origin)
  /// so the fan-out order cannot change any sampled delay. The engine
  /// derives the per-origin seeds chunked — one split(step) per step, one
  /// derive_seeds block per vote batch — which yields the same streams.
  /// A certified propagation's stream is never drawn.
  const util::Rng* gossip_root = nullptr;
  const util::InnerExecutor* exec = nullptr;
  /// Marked Committee for nodes that actually vote (observed roles).
  std::span<Role> observed_roles;
  /// Marked Committee for every elected node, voting or not (true roles).
  std::span<Role> true_roles;
};

void mark_committee(std::span<Role> roles, NodeId v) {
  if (roles[v] == Role::Other) roles[v] = Role::Committee;
}

/// Runs one voting step: elects the committee for `step`, collects votes
/// from members for whom `value_of` returns a value, gossips each vote, and
/// tallies each node's delay-filtered view against `quorum`. All per-node
/// and per-vote loops fan out across ctx.exec (vote classification stays
/// serial: it builds reach classes); all working memory comes from `ws`
/// and the per-node outcomes are rebuilt in place inside `out`.
template <typename ValueOf>
void run_vote_step(const StepContext& ctx, std::uint32_t step,
                   std::uint64_t expected_stake, double quorum,
                   const ValueOf& value_of, StepWorkspace& ws,
                   std::vector<StepOutcome>& out) {
  const std::size_t n = ctx.n;

  consensus::elect_committee_into(*ctx.keys, *ctx.stakes, ctx.round, step,
                                  ctx.prev_seed, expected_stake,
                                  ctx.total_stake, ws.committee, ws.draws,
                                  *ctx.exec);

  ws.votes.clear();
  for (const consensus::CommitteeMember& m : ws.committee.members) {
    mark_committee(ctx.true_roles, m.node);
    if (ctx.strategies[m.node] != Strategy::Cooperate) continue;
    const std::optional<Hash256> value = value_of(m.node);
    if (!value.has_value()) continue;
    mark_committee(ctx.observed_roles, m.node);
    ws.votes.push_back(consensus::make_vote(
        m.node, (*ctx.keys)[m.node].public_key(), ctx.round, step, *value,
        m.sortition));
  }
  const std::size_t nv = ws.votes.size();
  const net::TimeMs deadline = ctx.params->step_timeout_ms;

  // A certified vote needs no arrival times: its reach class's mask is
  // exactly the set of nodes it reaches by the deadline (DESIGN.md §5).
  // Each other vote runs one Dijkstra on its own (step, voter) delay
  // stream — the heavy, irregular items, claimed per index. The streams
  // are derived chunked: split(step) once, then one seed per origin.
  ws.vote_class.resize(nv);
  ws.exact.clear();
  for (std::size_t i = 0; i < nv; ++i) {
    ws.vote_class[i] =
        certified_class(*ctx.gossip, *ctx.relay_set, *ctx.reach,
                        ws.votes[i].voter, deadline, *ctx.counts);
    if (ws.vote_class[i] == kExact)
      ws.exact.push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t ne = ws.exact.size();
  const util::Rng step_stream = ctx.gossip_root->split(step);
  ws.origin_labels.resize(ne);
  ws.origin_seeds.resize(ne);
  for (std::size_t e = 0; e < ne; ++e)
    ws.origin_labels[e] = ws.votes[ws.exact[e]].voter;
  step_stream.derive_seeds(ws.origin_labels, ws.origin_seeds);
  if (ws.arrivals.size() < ne) ws.arrivals.resize(ne);
  if (ws.scratch.size() < ne) ws.scratch.resize(ne);
  ctx.exec->for_each_index(ne, [&](std::size_t e) {
    util::Rng rng(ws.origin_seeds[e]);
    ctx.gossip->propagate_into(ws.votes[ws.exact[e]].voter, 0.0,
                               *ctx.relay_set, rng, ws.arrivals[e],
                               ws.scratch[e]);
  });

  // Every receiving node verifies each vote's sortition proof; the check
  // is deterministic per vote, so the simulator performs it once per vote
  // and shares the verdict across receivers (the per-node *cost* of
  // verification is a model parameter, not re-simulated work).
  const crypto::SortitionParams sparams{expected_stake, ctx.total_stake};
  consensus::verify_votes_into(ws.votes, ctx.prev_seed, *ctx.stakes, sparams,
                               ws.valid, *ctx.exec);

  // Per-step tally tables, computed once instead of once per node: the
  // distinct value set (in vote order), then per valid vote its value id
  // and coin hash (previously rehashed per receiving node). An exact vote
  // joins the compacted list with its arrival row; a certified vote folds
  // into its reach class's slot — per-value weight sums and the minimum
  // coin hash, which is all the tally below reads of it.
  ws.counted.clear();
  ws.counted_rows.clear();
  ws.counted_weight.clear();
  ws.counted_value_id.clear();
  ws.counted_coin_hash.clear();
  ws.values.clear();
  ws.slot_class.clear();
  ws.slot_masks.clear();
  ws.slot_weights.clear();
  ws.slot_coin_hash.clear();
  for (std::size_t i = 0; i < nv; ++i) {
    if (ws.valid[i] != 0 && std::find(ws.values.begin(), ws.values.end(),
                                      ws.votes[i].value) == ws.values.end())
      ws.values.push_back(ws.votes[i].value);
  }
  const std::size_t distinct = ws.values.size();
  crypto::FixedHasher coin_layout("roleshare.coin");
  const std::size_t coin_slot = coin_layout.add_hash_slot();
  crypto::Sha256Fixed coin_fixed = coin_layout.build_template();
  std::size_t row = 0;  // arrival row of the next exact vote
  for (std::size_t i = 0; i < nv; ++i) {
    const std::uint32_t c = ws.vote_class[i];
    const net::TimeMs* arrival = c == kExact ? ws.arrivals[row++].data()
                                             : nullptr;
    if (ws.valid[i] == 0) continue;
    const auto id = static_cast<std::uint32_t>(
        std::find(ws.values.begin(), ws.values.end(), ws.votes[i].value) -
        ws.values.begin());
    crypto::write_hash_slot(coin_fixed, coin_slot,
                            ws.votes[i].sortition.vrf.output);
    const Hash256 coin_hash(coin_fixed.digest());
    if (c == kExact) {
      ws.counted.push_back(static_cast<std::uint32_t>(i));
      ws.counted_rows.push_back(arrival);
      ws.counted_weight.push_back(ws.votes[i].weight);
      ws.counted_value_id.push_back(id);
      ws.counted_coin_hash.push_back(coin_hash);
      continue;
    }
    std::size_t slot = 0;
    while (slot < ws.slot_class.size() && ws.slot_class[slot] != c) ++slot;
    if (slot == ws.slot_class.size()) {
      ws.slot_class.push_back(c);
      ws.slot_masks.push_back(ctx.reach->mask(c).data());
      ws.slot_weights.resize(ws.slot_weights.size() + distinct, 0);
      ws.slot_coin_hash.push_back(coin_hash);
    } else if (coin_hash < ws.slot_coin_hash[slot]) {
      ws.slot_coin_hash[slot] = coin_hash;
    }
    ws.slot_weights[slot * distinct + id] += ws.votes[i].weight;
  }

  // Per-node tally over valid votes that arrive within the step timeout.
  // Flat accumulation over the tables above; the winner rule (weight
  // strictly above quorum, highest weight, tie toward the lower hash) and
  // the common coin (lsb of the minimum coin hash) are order-independent
  // reductions (integer sums and a minimum), so adding a whole class slot
  // at once matches the per-node VoteCounter this replaces.
  const std::size_t slots = ws.slot_class.size();
  const std::size_t counted_n = ws.counted.size();
  const std::size_t chunks = util::InnerExecutor::chunk_count(n);
  if (ws.tally_weights.size() < chunks * distinct)
    ws.tally_weights.resize(chunks * distinct);
  out.resize(n);
  ctx.exec->for_each_chunk(
      n, [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::uint64_t* w = ws.tally_weights.data() + c * distinct;
        for (std::size_t v = begin; v < end; ++v) {
          out[v].winner.reset();
          out[v].coin = false;
          if (!ctx.online[v]) continue;
          for (std::size_t k = 0; k < distinct; ++k) w[k] = 0;
          bool any = false;
          Hash256 min_hash;
          for (std::size_t s = 0; s < slots; ++s) {
            if (ws.slot_masks[s][v] == 0) continue;
            const std::uint64_t* sw = ws.slot_weights.data() + s * distinct;
            for (std::size_t k = 0; k < distinct; ++k) w[k] += sw[k];
            const Hash256& ch = ws.slot_coin_hash[s];
            if (!any || ch < min_hash) {
              min_hash = ch;
              any = true;
            }
          }
          for (std::size_t j = 0; j < counted_n; ++j) {
            if (ws.counted_rows[j][v] > deadline) continue;
            w[ws.counted_value_id[j]] += ws.counted_weight[j];
            const Hash256& ch = ws.counted_coin_hash[j];
            if (!any || ch < min_hash) {
              min_hash = ch;
              any = true;
            }
          }
          int best = -1;
          for (std::size_t k = 0; k < distinct; ++k) {
            if (static_cast<double>(w[k]) <= quorum) continue;
            if (best < 0 || w[k] > w[static_cast<std::size_t>(best)] ||
                (w[k] == w[static_cast<std::size_t>(best)] &&
                 ws.values[k] < ws.values[static_cast<std::size_t>(best)])) {
              best = static_cast<int>(k);
            }
          }
          if (best >= 0) out[v].winner = ws.values[static_cast<std::size_t>(best)];
          out[v].coin = any && (min_hash.bytes().back() & 1) != 0;
        }
      });
}

}  // namespace

RoundEngine::RoundEngine(Network& network, consensus::ConsensusParams params,
                         util::ThreadPool* inner_pool)
    : network_(network), params_(params), exec_(inner_pool) {
  params_.validate();
}

RoundResult RoundEngine::run_round() {
  RoundWorkspace ws;
  RoundResult result;
  run_round_into(result, ws);
  return result;
}

void RoundEngine::run_round_sparse_into(SparseRoundResult& result,
                                        const SparseRoundContext& ctx,
                                        SparseRoundWorkspace& ws) {
  run_sampled_round_into(network_, params_, result, ctx, ws);
}

void RoundEngine::run_round_into(RoundResult& result, RoundWorkspace& ws) {
  ws.gossip_counts = GossipCounts{};
  if (params_.committee_model == consensus::CommitteeModel::Sampled) {
    // Dense evaluation of the Sampled semantics: fresh context from the
    // ledger, sparse core, full-population expansion. The sparse entry
    // point below runs the identical core on a caller-maintained context.
    ws.sampled_context.init_from(network_);
    run_sampled_round_into(network_, params_, ws.sampled_result,
                           ws.sampled_context, ws.sampled_scratch);
    expand_sparse_into(network_, ws.sampled_result, result, ws);
    return;
  }
  Network& net = network_;
  const std::size_t n = net.node_count();
  const ledger::Round round = net.chain().next_round();
  util::Rng rng = net.round_rng(round);
  // All gossip-delay randomness hangs off this independent child stream,
  // split per (step, origin); `rng` itself only feeds the round-level
  // synchrony draw. split() derives from seed material, not stream
  // position, so the two cannot interfere.
  const util::Rng gossip_root = rng.split("gossip");

  // Departed (non-live) nodes leave the active stake pool entirely: with
  // stake 0 sortition can never elect them, and the committee expectations
  // are measured against live stake only. Node ids stay stable — every
  // per-node vector below remains indexed by the full population.
  const std::vector<std::uint8_t>& live = net.live_mask();
  net.accounts().stakes_into(ws.stakes);
  std::int64_t total_stake = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!live[v]) ws.stakes[v] = 0;
    total_stake += ws.stakes[v];
  }
  RS_REQUIRE(total_stake > 0,
             "network has no live stake — churn floor left no live nodes");

  result.round = round;
  result.live_count = net.live_count();
  result.synchrony = net.synchrony().advance_round(rng);
  result.non_empty_block = false;

  const net::GossipEngine gossip(net.topology(), net.delays(),
                                 net.synchrony().delay_factor());

  // Relay set from this round's strategies: cooperators forward, online
  // defectors receive only, offline and departed nodes are absent.
  const std::vector<Strategy>& strategies = net.strategies();
  ws.relay.relays.assign(n, 0);
  ws.relay.online.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ws.relay.online[v] = live[v] && strategies[v] != Strategy::Offline;
    ws.relay.relays[v] = live[v] && strategies[v] == Strategy::Cooperate;
  }
  ws.reach.reset(n);

  const Hash256 prev_seed = net.chain().current_seed();
  const Hash256 next_seed = net.chain().next_seed();
  const Hash256 tip_hash = net.chain().tip().hash();
  const ledger::Block empty_block =
      ledger::Block::empty(round, tip_hash, next_seed);
  const Hash256 empty_hash = empty_block.hash();

  ws.observed_roles.assign(n, Role::Other);
  ws.true_roles.assign(n, Role::Other);

  // ---- Block proposal phase -------------------------------------------
  const crypto::VrfInput proposer_input{round, consensus::kProposerStep,
                                        prev_seed};
  const crypto::SortitionParams proposer_params{
      params_.expected_proposer_stake, total_stake};

  // Per-node sortition draws fan out across the executor; the winner scan
  // that builds proposals stays serial in node order (few winners).
  crypto::sortition_batch_into(net.keys(), proposer_input, ws.stakes,
                               proposer_params, ws.proposer_draws, exec_);
  ws.proposals.clear();
  for (std::size_t v = 0; v < n; ++v) {
    const crypto::SortitionResult& sres = ws.proposer_draws[v];
    if (!sres.selected()) continue;
    ws.true_roles[v] = Role::Leader;
    if (strategies[v] != Strategy::Cooperate) continue;
    ws.observed_roles[v] = Role::Leader;
    ledger::Block block =
        ledger::Block::make(round, tip_hash, next_seed,
                            net.keys()[v].public_key(), net.txpool().peek(64));
    ws.proposals.push_back(consensus::make_proposal(
        static_cast<NodeId>(v), net.keys()[v].public_key(), std::move(block),
        sres));
  }
  result.proposals = ws.proposals.size();
  const std::size_t np = ws.proposals.size();

  // Each proposal's block hash, computed once. Block::hash() walks the
  // whole transaction list; the old per-(node, proposal) recomputation in
  // the selection loop dominated the round at scale.
  ws.proposal_hashes.resize(np);
  for (std::size_t p = 0; p < np; ++p)
    ws.proposal_hashes[p] = ws.proposals[p].block_hash();

  // One gossip propagation per proposal. A certified one reads its reach
  // class's mask; the rest run Dijkstra, each on its own origin stream
  // (seeds derived chunked from the proposer-step stream).
  ws.proposal_class.resize(np);
  ws.proposal_rows.assign(np, nullptr);
  ws.proposal_exact.clear();
  for (std::size_t p = 0; p < np; ++p) {
    ws.proposal_class[p] = certified_class(
        gossip, ws.relay, ws.reach, ws.proposals[p].proposer,
        params_.proposal_timeout_ms, ws.gossip_counts);
    if (ws.proposal_class[p] == kExact)
      ws.proposal_exact.push_back(static_cast<std::uint32_t>(p));
  }
  const std::size_t npe = ws.proposal_exact.size();
  const util::Rng proposer_stream = gossip_root.split(consensus::kProposerStep);
  ws.proposer_labels.resize(npe);
  ws.proposer_seeds.resize(npe);
  for (std::size_t e = 0; e < npe; ++e)
    ws.proposer_labels[e] = ws.proposals[ws.proposal_exact[e]].proposer;
  proposer_stream.derive_seeds(ws.proposer_labels, ws.proposer_seeds);
  if (ws.proposal_arrivals.size() < npe) ws.proposal_arrivals.resize(npe);
  if (ws.proposal_scratch.size() < npe) ws.proposal_scratch.resize(npe);
  exec_.for_each_index(npe, [&](std::size_t e) {
    util::Rng prng(ws.proposer_seeds[e]);
    gossip.propagate_into(ws.proposals[ws.proposal_exact[e]].proposer, 0.0,
                          ws.relay, prng, ws.proposal_arrivals[e],
                          ws.proposal_scratch[e]);
  });
  for (std::size_t e = 0; e < npe; ++e)
    ws.proposal_rows[ws.proposal_exact[e]] = ws.proposal_arrivals[e].data();

  // Per-node proposal selection within the proposal timeout; also track
  // whether a node ever receives each block body at all (needed to
  // "extract" the block the votes certify).
  ws.best_idx.assign(n, -1);
  exec_.for_each_chunk(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (!ws.relay.online[v]) continue;
      std::uint64_t best_priority = 0;
      Hash256 best_hash;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint32_t c = ws.proposal_class[p];
        if (c != kExact ? ws.reach.mask(c)[v] == 0
                        : ws.proposal_rows[p][v] > params_.proposal_timeout_ms)
          continue;
        const Hash256& h = ws.proposal_hashes[p];
        if (ws.best_idx[v] < 0 || ws.proposals[p].priority > best_priority ||
            (ws.proposals[p].priority == best_priority && h < best_hash)) {
          ws.best_idx[v] = static_cast<int>(p);
          best_priority = ws.proposals[p].priority;
          best_hash = h;
        }
      }
    }
  });

  StepContext ctx;
  ctx.params = &params_;
  ctx.keys = &net.keys();
  ctx.stakes = &ws.stakes;
  ctx.strategies = strategies;
  ctx.online = ws.relay.online;
  ctx.total_stake = total_stake;
  ctx.n = n;
  ctx.round = round;
  ctx.prev_seed = prev_seed;
  ctx.relay_set = &ws.relay;
  ctx.gossip = &gossip;
  ctx.reach = &ws.reach;
  ctx.counts = &ws.gossip_counts;
  ctx.gossip_root = &gossip_root;
  ctx.exec = &exec_;
  ctx.observed_roles = ws.observed_roles;
  ctx.true_roles = ws.true_roles;

  // ---- Reduction phase (2 steps) --------------------------------------
  const double step_quorum = params_.step_quorum();
  run_vote_step(
      ctx, consensus::kReductionStep1, params_.expected_step_stake,
      step_quorum,
      [&](NodeId v) -> std::optional<Hash256> {
        return consensus::reduction_step1_value(
            ws.best_idx[v] >= 0
                ? std::optional<Hash256>(ws.proposal_hashes[ws.best_idx[v]])
                : std::nullopt,
            empty_hash);
      },
      ws.step, ws.step1);

  run_vote_step(
      ctx, consensus::kReductionStep2, params_.expected_step_stake,
      step_quorum,
      [&](NodeId v) -> std::optional<Hash256> {
        return ws.step1[v].winner.value_or(empty_hash);
      },
      ws.step, ws.step2);

  // ---- BinaryBA* -------------------------------------------------------
  ws.ba.clear();
  ws.ba.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    ws.ba.emplace_back(ws.step2[v].winner.value_or(empty_hash), empty_hash,
                       params_.max_binary_iterations);
  }
  // Concluded nodes keep voting their value for 3 more sub-steps to pull
  // stragglers over the line (Gilad et al., Alg. 8).
  ws.post_votes.assign(n, 0);

  const std::uint32_t last_step = consensus::kFirstBinaryStep +
                                  3 * params_.max_binary_iterations;
  for (std::uint32_t step = consensus::kFirstBinaryStep; step < last_step;
       ++step) {
    bool any_running = false;
    for (std::size_t v = 0; v < n; ++v)
      if (ws.relay.online[v] && ws.ba[v].running()) any_running = true;
    if (!any_running) break;

    run_vote_step(
        ctx, step, params_.expected_step_stake, step_quorum,
        [&](NodeId v) -> std::optional<Hash256> {
          if (ws.ba[v].running() && ws.ba[v].step_number() == step)
            return ws.ba[v].vote_value();
          if (!ws.ba[v].running() && ws.post_votes[v] > 0)
            return ws.ba[v].result();
          return std::nullopt;
        },
        ws.step, ws.ba_out);

    // Each node's BA state machine advances independently (ba[v] and
    // post_votes[v] are only touched at index v).
    exec_.for_each_chunk(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        if (!ws.relay.online[v]) continue;
        if (ws.ba[v].running() && ws.ba[v].step_number() == step) {
          ws.ba[v].advance(ws.ba_out[v].winner, ws.ba_out[v].coin);
          if (!ws.ba[v].running() &&
              ws.ba[v].status() != consensus::BaStatus::Exhausted)
            ws.post_votes[v] = 3;
        } else if (!ws.ba[v].running() && ws.post_votes[v] > 0) {
          --ws.post_votes[v];
        }
      }
    });
  }

  // ---- FINAL vote ------------------------------------------------------
  run_vote_step(
      ctx, consensus::kFinalStep, params_.expected_final_stake,
      params_.final_quorum(),
      [&](NodeId v) -> std::optional<Hash256> {
        if (ws.ba[v].concluded_in_first_iteration() &&
            ws.ba[v].result() != empty_hash)
          return ws.ba[v].result();
        return std::nullopt;
      },
      ws.step, ws.finals);

  ws.gossip_counts.classes = ws.reach.size();

  // ---- Outcomes --------------------------------------------------------
  // Loss-free reachability is exactly arrival < kNever, so a certified
  // proposal's mask answers "did the body ever arrive" too.
  auto body_received = [&](NodeId v, const Hash256& h) {
    if (h == empty_hash) return true;  // the empty block is derived locally
    for (std::size_t p = 0; p < np; ++p) {
      if (ws.proposal_hashes[p] != h) continue;
      const std::uint32_t c = ws.proposal_class[p];
      return c != kExact ? ws.reach.mask(c)[v] != 0
                         : ws.proposal_rows[p][v] < net::kNever;
    }
    return false;
  };

  result.outcomes.assign(n, NodeOutcome::NoBlock);
  exec_.for_each_chunk(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (!ws.relay.online[v]) continue;
      const auto id = static_cast<NodeId>(v);
      if (ws.finals[v].winner.has_value()) {
        result.outcomes[v] = body_received(id, *ws.finals[v].winner)
                                 ? NodeOutcome::Final
                                 : NodeOutcome::NoBlock;
      } else if (ws.ba[v].status() == consensus::BaStatus::ConcludedBlock ||
                 ws.ba[v].status() == consensus::BaStatus::ConcludedEmpty) {
        result.outcomes[v] = body_received(id, ws.ba[v].result())
                                 ? NodeOutcome::Tentative
                                 : NodeOutcome::NoBlock;
      }
    }
  });

  // Fractions over the live population (live_count > 0 is implied by the
  // live-stake check above); without churn this is the full node count.
  std::size_t finals_count = 0, tentative_count = 0;
  for (const NodeOutcome o : result.outcomes) {
    if (o == NodeOutcome::Final) ++finals_count;
    if (o == NodeOutcome::Tentative) ++tentative_count;
  }
  const auto live_n = static_cast<double>(result.live_count);
  result.final_fraction = static_cast<double>(finals_count) / live_n;
  result.tentative_fraction = static_cast<double>(tentative_count) / live_n;
  result.none_fraction =
      1.0 - result.final_fraction - result.tentative_fraction;

  // ---- Canonical chain append -----------------------------------------
  // The chain advances with the plurality conclusion (weighting every
  // online node equally); if no node concluded a block, the round yields
  // the empty block so seeds keep evolving.
  ws.conclusion_counts.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (!ws.relay.online[v]) continue;
    if (ws.ba[v].status() != consensus::BaStatus::ConcludedBlock) continue;
    const Hash256 h = ws.ba[v].result();
    auto it = std::find_if(ws.conclusion_counts.begin(),
                           ws.conclusion_counts.end(),
                           [&](const auto& e) { return e.first == h; });
    if (it == ws.conclusion_counts.end()) {
      ws.conclusion_counts.emplace_back(h, 1);
    } else {
      ++it->second;
    }
  }
  const ledger::Block* agreed = nullptr;
  std::size_t best_count = 0;
  for (const auto& [hash, count] : ws.conclusion_counts) {
    if (count <= best_count) continue;
    for (std::size_t p = 0; p < np; ++p) {
      if (ws.proposal_hashes[p] == hash) {
        agreed = &ws.proposals[p].block;
        best_count = count;
        break;
      }
    }
  }
  if (agreed != nullptr) {
    ledger::Block block = *agreed;
    net.txpool().mark_included(block.transactions());
    const bool ok = net.chain().append(std::move(block));
    RS_ENSURE(ok, "agreed block must extend the chain");
    result.non_empty_block = !net.chain().tip().is_empty();
  } else {
    const bool ok = net.chain().append(empty_block);
    RS_ENSURE(ok, "empty block must extend the chain");
  }

  // ---- Role snapshots for the reward schemes and the strategic loop ----
  // reset() swaps the filled vectors into the (recycled) snapshots and
  // hands their previous buffers back to the workspace for the next round.
  ws.reward_stakes.assign(ws.stakes.begin(), ws.stakes.end());
  for (std::size_t v = 0; v < n; ++v)
    if (!ws.relay.online[v]) ws.reward_stakes[v] = 0;  // offline: no reward
  ws.reward_stakes_true.assign(ws.reward_stakes.begin(),
                               ws.reward_stakes.end());
  if (!result.roles_true.has_value())
    result.roles_true.emplace(std::vector<Role>{},
                              std::vector<std::int64_t>{});
  result.roles_true->reset(ws.true_roles, ws.reward_stakes_true);
  if (!result.roles.has_value())
    result.roles.emplace(std::vector<Role>{}, std::vector<std::int64_t>{});
  result.roles->reset(ws.observed_roles, ws.reward_stakes);
}

}  // namespace roleshare::sim
