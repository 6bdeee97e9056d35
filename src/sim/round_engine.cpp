#include "sim/round_engine.hpp"

#include <algorithm>
#include <span>

#include "consensus/binary_ba.hpp"
#include "consensus/proposal.hpp"
#include "consensus/reduction.hpp"
#include "consensus/roles.hpp"
#include "consensus/votes.hpp"
#include "sim/round_phases.hpp"

namespace roleshare::sim {

namespace {

using consensus::Role;
using crypto::Hash256;
using game::Strategy;
using ledger::NodeId;

constexpr std::uint32_t kExact = GossipBatch::kExact;

/// Everything one voting step needs from the round. Per-node state is
/// threaded through as contiguous arrays (structure-of-arrays): the step
/// loops index stakes/strategies/online/roles directly instead of going
/// through per-node accessor calls.
struct StepContext {
  const consensus::ConsensusParams& params;
  const std::vector<crypto::KeyPair>& keys;
  const crypto::SignerTable& signers;
  const std::vector<std::int64_t>& stakes;  // live stake; departed nodes 0
  std::span<const Strategy> strategies;
  std::int64_t total_stake;
  const RoundOpening& open;
  /// The round's relay set, reach classes (classified serially, read in
  /// parallel), gossip counts and executor.
  const RoundGossip& gossip;
  /// Marked Committee for nodes that actually vote (observed roles).
  std::span<Role> observed_roles;
  /// Marked Committee for every elected node, voting or not (true roles).
  std::span<Role> true_roles;
};

/// Runs one voting step: elects the committee for `step`, collects votes
/// from members for whom `value_of` returns a value, gossips each vote, and
/// tallies each node's delay-filtered view against `quorum`. All per-node
/// and per-vote loops fan out across the executor (vote classification stays
/// serial: it builds reach classes); all working memory comes from `ws`
/// and the per-node outcomes are rebuilt in place inside `out`.
template <typename ValueOf>
void run_vote_step(const StepContext& ctx, std::uint32_t step,
                   std::uint64_t expected_stake, double quorum,
                   const ValueOf& value_of, StepWorkspace& ws,
                   std::vector<StepOutcome>& out) {
  const std::size_t n = ctx.stakes.size();
  const ledger::Round round = ctx.open.round;
  const util::InnerExecutor& exec = ctx.gossip.exec;

  consensus::elect_committee_into(ctx.signers, ctx.stakes, round, step,
                                  ctx.open.prev_seed, expected_stake,
                                  ctx.total_stake, ws.committee, ws.draws,
                                  exec);

  ws.votes.clear();
  ws.gossip.labels.clear();
  for (const consensus::CommitteeMember& m : ws.committee.members) {
    mark_committee(ctx.true_roles[m.node]);
    if (ctx.strategies[m.node] != Strategy::Cooperate) continue;
    const std::optional<Hash256> value = value_of(m.node);
    if (!value.has_value()) continue;
    mark_committee(ctx.observed_roles[m.node]);
    ws.votes.push_back(consensus::make_vote(
        m.node, ctx.keys[m.node].public_key(), round, step, *value,
        m.sortition));
    ws.gossip.labels.push_back(m.node);
  }
  const std::size_t nv = ws.votes.size();
  const net::TimeMs deadline = ctx.params.step_timeout_ms;

  // A certified vote needs no arrival times: its reach class's mask is
  // exactly the set of nodes it reaches by the deadline (DESIGN.md §5).
  fill_gossip_batch(ws.gossip, ctx.gossip, deadline,
                    ctx.open.gossip_root.split(step));

  // Every receiving node verifies each vote's sortition proof; the check
  // is deterministic per vote, so the simulator performs it once per vote
  // and shares the verdict across receivers (the per-node *cost* of
  // verification is a model parameter, not re-simulated work).
  const crypto::SortitionParams sparams{expected_stake, ctx.total_stake};
  consensus::verify_votes_into(ws.votes, ctx.open.prev_seed, ctx.stakes,
                               sparams, ws.valid, exec);

  // Per-step tally tables, computed once instead of once per node: the
  // distinct value set (in vote order), then per valid vote its value id
  // and consensus::coin_hash. An exact vote joins the compacted list with
  // its arrival row; a certified vote folds into its reach class's slot —
  // per-value weight sums and the minimum coin hash, which is all the
  // tally below reads of it.
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
  for (std::size_t i = 0; i < nv; ++i) {
    if (ws.valid[i] == 0) continue;
    const std::uint32_t c = ws.gossip.reach_class[i];
    const auto id = static_cast<std::uint32_t>(
        std::find(ws.values.begin(), ws.values.end(), ws.votes[i].value) -
        ws.values.begin());
    const Hash256 coin_hash =
        consensus::coin_hash(ws.votes[i].sortition.vrf.output);
    if (c == kExact) {
      ws.counted_rows.push_back(ws.gossip.rows[i]);
      ws.counted_weight.push_back(ws.votes[i].weight);
      ws.counted_value_id.push_back(id);
      ws.counted_coin_hash.push_back(coin_hash);
      continue;
    }
    std::size_t slot = 0;
    while (slot < ws.slot_class.size() && ws.slot_class[slot] != c) ++slot;
    if (slot == ws.slot_class.size()) {
      ws.slot_class.push_back(c);
      ws.slot_masks.push_back(ctx.gossip.reach.mask(c).data());
      ws.slot_weights.resize(ws.slot_weights.size() + distinct, 0);
      ws.slot_coin_hash.push_back(coin_hash);
    } else if (coin_hash < ws.slot_coin_hash[slot]) {
      ws.slot_coin_hash[slot] = coin_hash;
    }
    ws.slot_weights[slot * distinct + id] += ws.votes[i].weight;
  }

  // Per-node tally over valid votes that arrive within the step timeout.
  // Flat accumulation over the tables above, then consensus::quorum_winner
  // and consensus::CommonCoin: both read order-independent reductions
  // (integer sums and a minimum), so adding a whole class slot at once
  // matches counting the node's votes one by one in a VoteCounter.
  const std::size_t slots = ws.slot_class.size();
  const std::size_t counted_n = ws.counted_rows.size();
  const std::size_t chunks = util::InnerExecutor::chunk_count(n);
  if (ws.tally_weights.size() < chunks * distinct)
    ws.tally_weights.resize(chunks * distinct);
  out.resize(n);
  exec.for_each_chunk(
      n, [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::uint64_t* w = ws.tally_weights.data() + c * distinct;
        for (std::size_t v = begin; v < end; ++v) {
          out[v].winner.reset();
          out[v].coin = false;
          if (!ctx.gossip.relay.online[v]) continue;
          for (std::size_t k = 0; k < distinct; ++k) w[k] = 0;
          consensus::CommonCoin coin;
          for (std::size_t s = 0; s < slots; ++s) {
            if (ws.slot_masks[s][v] == 0) continue;
            const std::uint64_t* sw = ws.slot_weights.data() + s * distinct;
            for (std::size_t k = 0; k < distinct; ++k) w[k] += sw[k];
            coin.add(ws.slot_coin_hash[s]);
          }
          for (std::size_t j = 0; j < counted_n; ++j) {
            if (ws.counted_rows[j][v] > deadline) continue;
            w[ws.counted_value_id[j]] += ws.counted_weight[j];
            coin.add(ws.counted_coin_hash[j]);
          }
          const int best =
              consensus::quorum_winner({w, distinct}, ws.values, quorum);
          if (best >= 0) out[v].winner = ws.values[static_cast<std::size_t>(best)];
          out[v].coin = coin.bit();
        }
      });
}

}  // namespace

RoundEngine::RoundEngine(Network& network, consensus::ConsensusParams params,
                         util::ThreadPool* inner_pool)
    : network_(network), params_(params), exec_(inner_pool) {
  params_.validate();
  if (params_.committee_model == consensus::CommitteeModel::PerNodeVrf)
    signers_ = crypto::SignerTable(network_.keys());
}

RoundResult RoundEngine::run_round() {
  RoundWorkspace ws;
  RoundResult result;
  run_round_into(result, ws);
  return result;
}

void RoundEngine::run_round_into(RoundResult& result, RoundWorkspace& ws) {
  ws.gossip_counts = GossipCounts{};
  if (params_.committee_model == consensus::CommitteeModel::Sampled) {
    // Dense evaluation of the Sampled semantics: fresh context from the
    // ledger, sparse core, full-population expansion. Callers of
    // run_round_sparse_into run the same core on a context they maintain.
    ws.sampled_context.init_from(network_);
    run_round_sparse_into(ws.sampled_result, ws.sampled_context,
                          ws.sampled_scratch);
    expand_sparse_into(network_, ws.sampled_result, result, ws);
    return;
  }
  Network& net = network_;
  const std::size_t n = net.node_count();

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
  const RoundOpening open = open_round(net, total_stake);
  const ledger::Round round = open.round;
  const Hash256& empty_hash = open.empty_hash;

  result.round = round;
  result.live_count = net.live_count();
  result.synchrony = open.synchrony;

  const std::vector<Strategy>& strategies = net.strategies();
  fill_relay_set(net, ws.relay);
  ws.reach.reset(n);
  const net::GossipEngine engine(net.topology(), net.delays(),
                                 net.synchrony().delay_factor());
  const RoundGossip gossip{engine, ws.relay, ws.reach, ws.gossip_counts,
                           exec_};

  ws.observed_roles.assign(n, Role::Other);
  ws.true_roles.assign(n, Role::Other);

  // ---- Block proposal phase -------------------------------------------
  const crypto::VrfInput proposer_input{round, consensus::kProposerStep,
                                        open.prev_seed};
  const crypto::SortitionParams proposer_params{
      params_.expected_proposer_stake, total_stake};

  // Per-node sortition draws fan out across the executor; the winner scan
  // that builds proposals stays serial in node order (few winners).
  crypto::sortition_batch_into(signers_, proposer_input, ws.stakes,
                               proposer_params, ws.proposer_draws, exec_);
  ws.proposals.clear();
  ws.proposal_hashes.clear();
  ws.proposal_gossip.labels.clear();
  for (std::size_t v = 0; v < n; ++v) {
    const crypto::SortitionResult& sres = ws.proposer_draws[v];
    if (!sres.selected()) continue;
    ws.true_roles[v] = Role::Leader;
    if (strategies[v] != Strategy::Cooperate) continue;
    ws.observed_roles[v] = Role::Leader;
    ledger::Block block = ledger::Block::make(
        round, open.tip_hash, open.next_seed, net.keys()[v].public_key());
    ws.proposals.push_back(consensus::make_proposal(
        static_cast<NodeId>(v), net.keys()[v].public_key(), std::move(block),
        sres));
    ws.proposal_hashes.push_back(ws.proposals.back().block_hash());
    ws.proposal_gossip.labels.push_back(v);
  }
  result.proposals = ws.proposals.size();
  const std::size_t np = ws.proposals.size();

  // One gossip propagation per proposal. A certified one reads its reach
  // class's mask; the rest run Dijkstra, each on its own origin stream
  // (seeds derived chunked from the proposer-step stream).
  const GossipBatch& proposal_gossip = ws.proposal_gossip;
  fill_gossip_batch(ws.proposal_gossip, gossip, params_.proposal_timeout_ms,
                    open.gossip_root.split(consensus::kProposerStep));

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
        const std::uint32_t c = proposal_gossip.reach_class[p];
        if (c != kExact
                ? ws.reach.mask(c)[v] == 0
                : proposal_gossip.rows[p][v] > params_.proposal_timeout_ms)
          continue;
        const Hash256& h = ws.proposal_hashes[p];
        if (ws.best_idx[v] < 0 ||
            consensus::outranks(ws.proposals[p].priority, h, best_priority,
                                best_hash)) {
          ws.best_idx[v] = static_cast<int>(p);
          best_priority = ws.proposals[p].priority;
          best_hash = h;
        }
      }
    }
  });

  const StepContext ctx{params_, net.keys(), signers_, ws.stakes,
                        strategies, total_stake, open, gossip,
                        ws.observed_roles, ws.true_roles};

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
      [&](NodeId v) { return ws.ba[v].final_vote(); }, ws.step, ws.finals);

  ws.gossip_counts.classes = ws.reach.size();

  // ---- Outcomes --------------------------------------------------------
  // Loss-free reachability is exactly arrival < kNever, so a certified
  // proposal's mask answers "did the body ever arrive" too.
  result.outcomes.assign(n, NodeOutcome::NoBlock);
  exec_.for_each_chunk(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (!ws.relay.online[v]) continue;
      result.outcomes[v] = outcome_of(
          ws.finals[v].winner, ws.ba[v], empty_hash, [&](const Hash256& h) {
            const int p = find_proposal(ws.proposal_hashes, h);
            if (p < 0) return false;
            const std::uint32_t c = proposal_gossip.reach_class[p];
            return c != kExact ? ws.reach.mask(c)[v] != 0
                               : proposal_gossip.rows[p][v] < net::kNever;
          });
    }
  });

  std::size_t finals_count = 0, tentative_count = 0;
  for (const NodeOutcome o : result.outcomes) {
    if (o == NodeOutcome::Final) ++finals_count;
    if (o == NodeOutcome::Tentative) ++tentative_count;
  }
  set_fractions(result, finals_count, tentative_count);

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
    const int p = find_proposal(ws.proposal_hashes, hash);
    if (p < 0) continue;
    agreed = &ws.proposals[static_cast<std::size_t>(p)].block;
    best_count = count;
  }
  result.non_empty_block = append_block(net, agreed, open.empty_block);

  // ---- Role snapshots for the reward schemes and the strategic loop ----
  publish_roles(ws, result);
}

}  // namespace roleshare::sim
