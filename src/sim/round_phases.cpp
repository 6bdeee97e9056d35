#include "sim/round_phases.hpp"

#include "util/require.hpp"

namespace roleshare::sim {

void fill_relay_set(const Network& net, net::RelaySet& relay) {
  const std::size_t n = net.node_count();
  relay.online.resize(n);
  relay.relays.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Presence p =
        presence_of(net.live_mask()[v] != 0, net.strategies()[v]);
    relay.online[v] = p.online;
    relay.relays[v] = p.relay;
  }
}

RoundOpening open_round(Network& net, std::int64_t live_stake) {
  RS_REQUIRE(live_stake > 0,
             "network has no live stake — churn floor left no live nodes");
  RoundOpening open;
  open.round = net.chain().next_round();
  open.rng = net.round_rng(open.round);
  open.gossip_root = open.rng.split("gossip");
  open.synchrony = net.synchrony().advance_round(open.rng);
  open.prev_seed = net.chain().current_seed();
  open.next_seed = net.chain().next_seed();
  open.tip_hash = net.chain().tip().hash();
  open.empty_block =
      ledger::Block::empty(open.round, open.tip_hash, open.next_seed);
  open.empty_hash = open.empty_block.hash();
  return open;
}

void set_fractions(RoundSummary& summary, std::size_t finals,
                   std::size_t tentative) {
  const auto live_n = static_cast<double>(summary.live_count);
  const auto share = [&](std::size_t count) {
    return live_n > 0.0 ? static_cast<double>(count) / live_n : 0.0;
  };
  summary.final_fraction = share(finals);
  summary.tentative_fraction = share(tentative);
  summary.none_fraction =
      1.0 - summary.final_fraction - summary.tentative_fraction;
}

bool append_block(Network& net, const ledger::Block* agreed,
                  const ledger::Block& empty_block) {
  if (agreed == nullptr) {
    const bool ok = net.chain().append(empty_block);
    RS_ENSURE(ok, "empty block must extend the chain");
    return false;
  }
  const bool ok = net.chain().append(*agreed);
  RS_ENSURE(ok, "agreed block must extend the chain");
  return !net.chain().tip().is_empty();
}

void publish_roles(RoundWorkspace& ws, RoundResult& result) {
  ws.reward_stakes.assign(ws.stakes.begin(), ws.stakes.end());
  for (std::size_t v = 0; v < ws.reward_stakes.size(); ++v)
    if (!ws.relay.online[v]) ws.reward_stakes[v] = 0;
  ws.reward_stakes_true.assign(ws.reward_stakes.begin(),
                               ws.reward_stakes.end());
  if (!result.roles_true.has_value())
    result.roles_true.emplace(std::vector<consensus::Role>{},
                              std::vector<std::int64_t>{});
  result.roles_true->reset(ws.true_roles, ws.reward_stakes_true);
  if (!result.roles.has_value())
    result.roles.emplace(std::vector<consensus::Role>{},
                         std::vector<std::int64_t>{});
  result.roles->reset(ws.observed_roles, ws.reward_stakes);
}

void fill_gossip_batch(GossipBatch& batch, const RoundGossip& gossip,
                       net::TimeMs timeout, const util::Rng& step_stream) {
  const std::size_t items = batch.labels.size();
  batch.reach_class.resize(items);
  batch.rows.assign(items, nullptr);
  batch.exact.clear();
  for (std::size_t i = 0; i < items; ++i) {
    const auto origin = static_cast<ledger::NodeId>(batch.labels[i]);
    const std::uint32_t c =
        gossip.reach.classify(gossip.engine, gossip.relay, origin);
    if (c != net::ReachClasses::kNone &&
        gossip.engine.certifies(gossip.reach.depth_bound(origin), timeout)) {
      ++gossip.counts.certified;
      batch.reach_class[i] = c;
      continue;
    }
    ++gossip.counts.exact;
    batch.reach_class[i] = GossipBatch::kExact;
    batch.exact.push_back(static_cast<std::uint32_t>(i));
  }
  batch.seeds.resize(items);
  step_stream.derive_seeds(batch.labels, batch.seeds);
  // Grown but never shrunk, so each row keeps its capacity across batches.
  const std::size_t ne = batch.exact.size();
  if (batch.arrivals.size() < ne) batch.arrivals.resize(ne);
  if (batch.scratch.size() < ne) batch.scratch.resize(ne);
  gossip.exec.for_each_index(ne, [&](std::size_t e) {
    const std::uint32_t i = batch.exact[e];
    util::Rng rng(batch.seeds[i]);
    gossip.engine.propagate_into(static_cast<ledger::NodeId>(batch.labels[i]),
                                 0.0, gossip.relay, rng, batch.arrivals[e],
                                 batch.scratch[e]);
  });
  for (std::size_t e = 0; e < ne; ++e)
    batch.rows[batch.exact[e]] = batch.arrivals[e].data();
}

}  // namespace roleshare::sim
