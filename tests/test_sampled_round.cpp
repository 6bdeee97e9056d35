#include "sim/sampled_round.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/sparse_payout.hpp"
#include "sim/round_engine.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::sim {
namespace {

NetworkConfig config_with(double defection_rate, std::size_t nodes = 150,
                          std::uint64_t seed = 21) {
  NetworkConfig config;
  config.node_count = nodes;
  config.seed = seed;
  config.defection_rate = defection_rate;
  return config;
}

consensus::ConsensusParams sampled_params_for(const Network& net) {
  auto params =
      consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
  params.committee_model = consensus::CommitteeModel::Sampled;
  return params;
}

// Applies one round of compounded fixed-split payouts to `net` from the
// sparse result's touched set and returns the µAlgos credited. The
// long-horizon economy loop in miniature.
ledger::MicroAlgos apply_payouts(Network& net, const SparseRoundResult& sparse,
                                 SparseRoundContext* ctx) {
  std::vector<consensus::Role> roles;
  std::vector<std::int64_t> stakes;
  std::vector<ledger::MicroAlgos> amounts(sparse.touched.size(), 0);
  roles.reserve(sparse.touched.size());
  stakes.reserve(sparse.touched.size());
  for (const SparseNodeRole& t : sparse.touched) {
    roles.push_back(t.role_observed);
    stakes.push_back(t.reward_stake);
  }
  const econ::RewardSplit split(0.30, 0.30);
  const auto budget = econ::FoundationSchedule::reward_for_round(
      std::max<ledger::Round>(sparse.round, 1));
  const auto totals = econ::distribute_touched(
      split, budget, roles, stakes, sparse.online_stake, amounts);
  for (std::size_t i = 0; i < sparse.touched.size(); ++i) {
    if (amounts[i] == 0) continue;
    const ledger::NodeId v = sparse.touched[i].node;
    net.accounts().credit(v, amounts[i]);
    if (ctx != nullptr) ctx->refresh_node(net, v);
  }
  return totals.paid;
}

TEST(MeanFieldHops, EdgeCases) {
  EXPECT_EQ(mean_field_hops(0, 5, 4), 0u);    // nobody online
  EXPECT_EQ(mean_field_hops(100, 0, 4), 0u);  // no relays: unreachable
  EXPECT_EQ(mean_field_hops(1, 1, 4), 1u);    // lone node hears itself
  // More nodes at fixed relays/fan-out cannot take fewer hops.
  std::uint32_t prev = 0;
  for (std::size_t online : {10u, 100u, 1000u, 10000u}) {
    const std::uint32_t hops = mean_field_hops(online, online / 2, 4);
    EXPECT_GE(hops, prev);
    prev = hops;
  }
  // Vanishing relay fraction saturates at the 64-hop clamp.
  EXPECT_EQ(mean_field_hops(1'000'000, 1, 1), 64u);
}

TEST(SampledRound, DenseSampledReachesConsensus) {
  Network net(config_with(0.0));
  RoundEngine engine(net, sampled_params_for(net));
  RoundResult result;
  RoundWorkspace ws;
  engine.run_round_into(result, ws);
  EXPECT_EQ(result.round, 1u);
  EXPECT_GT(result.final_fraction, 0.9);
  EXPECT_TRUE(result.non_empty_block);
  EXPECT_GT(result.proposals, 0u);
  EXPECT_EQ(result.outcomes.size(), net.node_count());
  ASSERT_TRUE(result.roles.has_value());
  EXPECT_GT(result.roles->count(consensus::Role::Leader), 0u);
  EXPECT_GT(result.roles->count(consensus::Role::Committee), 0u);
}

// The tentpole contract: a caller-maintained sparse context produces a
// bit-identical evaluation to the dense path's per-round rebuild, round
// after round, while rewards compound into stake on both sides.
TEST(SampledRound, SparseMatchesDenseAcrossCompoundingRounds) {
  Network dense_net(config_with(0.15, 200, 7));
  Network sparse_net(config_with(0.15, 200, 7));
  RoundEngine dense(dense_net, sampled_params_for(dense_net));
  RoundEngine sparse(sparse_net, sampled_params_for(sparse_net));

  SparseRoundContext ctx;
  ctx.init_from(sparse_net);
  SparseRoundWorkspace sparse_ws;
  SparseRoundResult sparse_result;
  RoundResult dense_result;
  RoundWorkspace dense_ws;
  RoundResult expanded;
  RoundWorkspace expand_ws;

  for (int r = 1; r <= 12; ++r) {
    dense.run_round_into(dense_result, dense_ws);
    sparse.run_round_sparse_into(sparse_result, ctx, sparse_ws);

    ASSERT_EQ(sparse_result.round, dense_result.round) << "round " << r;
    EXPECT_EQ(sparse_result.live_count, dense_result.live_count);
    EXPECT_EQ(sparse_result.final_fraction, dense_result.final_fraction);
    EXPECT_EQ(sparse_result.tentative_fraction,
              dense_result.tentative_fraction);
    EXPECT_EQ(sparse_result.none_fraction, dense_result.none_fraction);
    EXPECT_EQ(sparse_result.non_empty_block, dense_result.non_empty_block);
    EXPECT_EQ(sparse_result.proposals, dense_result.proposals);
    EXPECT_EQ(sparse_result.synchrony, dense_result.synchrony);

    // The chains must agree byte for byte.
    ASSERT_EQ(sparse_net.chain().tip().hash(), dense_net.chain().tip().hash())
        << "round " << r;

    // Expanding the sparse result reproduces the dense materialization.
    expand_sparse_into(sparse_net, sparse_result, expanded, expand_ws);
    ASSERT_EQ(expanded.outcomes, dense_result.outcomes) << "round " << r;
    ASSERT_TRUE(expanded.roles.has_value());
    ASSERT_TRUE(dense_result.roles.has_value());
    EXPECT_EQ(expanded.roles->roles(), dense_result.roles->roles());
    EXPECT_EQ(expanded.roles->stakes(), dense_result.roles->stakes());
    ASSERT_TRUE(expanded.roles_true.has_value());
    ASSERT_TRUE(dense_result.roles_true.has_value());
    EXPECT_EQ(expanded.roles_true->roles(), dense_result.roles_true->roles());
    EXPECT_EQ(expanded.roles_true->stakes(),
              dense_result.roles_true->stakes());

    // Compound identical rewards into both economies; the sparse context
    // absorbs them incrementally, the dense path rebuilds next round.
    const auto paid_sparse = apply_payouts(sparse_net, sparse_result, &ctx);
    SparseRoundResult dense_as_sparse;
    // The dense side needs the same touched accounting; run the payouts
    // from the sparse result (already proven equal this round).
    const auto paid_dense = apply_payouts(dense_net, sparse_result, nullptr);
    EXPECT_EQ(paid_sparse, paid_dense);
    (void)dense_as_sparse;
  }
}

TEST(SampledRound, SparseMatchesDenseUnderChurn) {
  Network dense_net(config_with(0.10, 160, 11));
  Network sparse_net(config_with(0.10, 160, 11));
  RoundEngine dense(dense_net, sampled_params_for(dense_net));
  RoundEngine sparse(sparse_net, sampled_params_for(sparse_net));

  SparseRoundContext ctx;
  ctx.init_from(sparse_net);
  SparseRoundWorkspace sparse_ws;
  SparseRoundResult sparse_result;
  RoundResult dense_result;
  RoundWorkspace dense_ws;

  util::Rng churn(99);
  for (int r = 1; r <= 10; ++r) {
    dense.run_round_into(dense_result, dense_ws);
    sparse.run_round_sparse_into(sparse_result, ctx, sparse_ws);
    EXPECT_EQ(sparse_result.final_fraction, dense_result.final_fraction)
        << "round " << r;
    EXPECT_EQ(sparse_result.live_count, dense_result.live_count);
    ASSERT_EQ(sparse_net.chain().tip().hash(), dense_net.chain().tip().hash());

    // Toggle liveness of a few random nodes identically on both networks.
    for (int k = 0; k < 4; ++k) {
      const auto v = static_cast<ledger::NodeId>(churn.uniform_int(
          0, static_cast<std::int64_t>(dense_net.node_count()) - 1));
      const bool live = churn.bernoulli(0.7);
      dense_net.set_live(v, live);
      sparse_net.set_live(v, live);
      ctx.refresh_node(sparse_net, v);
    }
  }
}

TEST(SampledRound, InnerPoolBitIdentity) {
  Network serial_net(config_with(0.2, 140, 5));
  Network pooled_net(config_with(0.2, 140, 5));
  util::ThreadPool pool(4);
  RoundEngine serial(serial_net, sampled_params_for(serial_net));
  RoundEngine pooled(pooled_net, sampled_params_for(pooled_net), &pool);
  RoundResult a, b;
  RoundWorkspace wa, wb;
  for (int r = 0; r < 4; ++r) {
    serial.run_round_into(a, wa);
    pooled.run_round_into(b, wb);
    ASSERT_EQ(a.outcomes, b.outcomes);
    ASSERT_EQ(serial_net.chain().tip().hash(), pooled_net.chain().tip().hash());
  }
}

TEST(SparseRoundContext, RefreshTracksCreditsAndLiveness) {
  Network net(config_with(0.0, 50, 3));
  SparseRoundContext ctx;
  ctx.init_from(net);
  const auto before_stake = ctx.online_stake();
  const auto before_count = ctx.online_count();
  EXPECT_EQ(before_stake, net.accounts().total_stake());

  // Credit 5 whole Algos to node 7: index and counters must follow.
  const ledger::NodeId v = 7;
  const auto old = net.accounts().stake(v);
  net.accounts().credit(v, 5 * ledger::kMicroPerAlgo);
  ctx.refresh_node(net, v);
  EXPECT_EQ(ctx.index().stake_of(v), old + 5);
  EXPECT_EQ(ctx.online_stake(), before_stake + 5);

  // Departures remove the node's stake and presence.
  net.set_live(v, false);
  ctx.refresh_node(net, v);
  EXPECT_FALSE(ctx.online(v));
  EXPECT_EQ(ctx.index().stake_of(v), 0);
  EXPECT_EQ(ctx.online_count(), before_count - 1);
  EXPECT_EQ(ctx.online_stake(), before_stake - old);

  // Rejoin restores everything.
  net.set_live(v, true);
  ctx.refresh_node(net, v);
  EXPECT_TRUE(ctx.online(v));
  EXPECT_EQ(ctx.index().stake_of(v), old + 5);
  EXPECT_EQ(ctx.online_count(), before_count);
}

// The reuse contract: after warm-up, repeated sparse rounds must not grow
// any workspace buffer (capacity_bytes is the allocation proxy the
// round_latency --self-check gate also uses).
TEST(SparseRoundWorkspace, SteadyStateCapacityStable) {
  Network net(config_with(0.1, 300, 13));
  RoundEngine engine(net, sampled_params_for(net));
  SparseRoundContext ctx;
  ctx.init_from(net);
  SparseRoundWorkspace ws;
  SparseRoundResult result;
  for (int r = 0; r < 5; ++r) {
    engine.run_round_sparse_into(result, ctx, ws);
    apply_payouts(net, result, &ctx);
  }
  const std::size_t warm = ws.capacity_bytes();
  EXPECT_GT(warm, 0u);
  for (int r = 0; r < 10; ++r) {
    engine.run_round_sparse_into(result, ctx, ws);
    apply_payouts(net, result, &ctx);
  }
  EXPECT_EQ(ws.capacity_bytes(), warm);
}

TEST(SampledRound, RoundOutputIsPinned) {
  // Every byte run_round_sparse_into reports over twelve rounds with
  // defectors, offline nodes, a departure after round 4 and a forced
  // degraded run from round 8, while one touched node per round is
  // credited and refreshed into the context. A change to the round
  // phases must keep all of it.
  NetworkConfig config = config_with(0.15, 300, 73);
  config.faulty_rate = 0.05;
  config.synchrony.degraded_delay_factor = 60.0;
  Network net(config);
  RoundEngine engine(net, sampled_params_for(net));
  SparseRoundContext ctx;
  ctx.init_from(net);
  SparseRoundWorkspace ws;
  SparseRoundResult result;
  ledger::NodeId departing = 0;
  while (net.strategies()[departing] != game::Strategy::Cooperate)
    ++departing;
  crypto::Sha256 sha;
  for (std::size_t r = 1; r <= 12; ++r) {
    if (r == 5) {
      net.set_live(departing, false);
      ctx.refresh_node(net, departing);
    }
    if (r == 8) net.synchrony().force(net::SynchronyState::Degraded);
    engine.run_round_sparse_into(result, ctx, ws);
    sha.update_u64(result.round);
    sha.update_u64(result.live_count);
    sha.update_u64(result.online_count);
    sha.update_u64(static_cast<std::uint64_t>(result.online_stake));
    sha.update_u64(static_cast<std::uint64_t>(result.online_outcome));
    sha.update_u64(std::bit_cast<std::uint64_t>(result.final_fraction));
    sha.update_u64(std::bit_cast<std::uint64_t>(result.tentative_fraction));
    sha.update_u64(std::bit_cast<std::uint64_t>(result.none_fraction));
    sha.update_u64(result.non_empty_block ? 1 : 0);
    sha.update_u64(result.proposals);
    sha.update_u64(static_cast<std::uint64_t>(result.synchrony));
    sha.update_u64(result.touched.size());
    for (const SparseNodeRole& t : result.touched) {
      sha.update_u64(t.node);
      sha.update_u64(static_cast<std::uint64_t>(t.role_true));
      sha.update_u64(static_cast<std::uint64_t>(t.role_observed));
      sha.update_u64(static_cast<std::uint64_t>(t.reward_stake));
    }
    sha.update(net.chain().tip().hash().bytes());

    ASSERT_FALSE(result.touched.empty());
    const ledger::NodeId credited =
        result.touched[r % result.touched.size()].node;
    net.accounts().credit(credited, 3 * ledger::kMicroPerAlgo);
    ctx.refresh_node(net, credited);
  }
  EXPECT_EQ(crypto::Hash256(sha.finalize()).to_hex(),
            "72151fb0db3a49c9e2aa8adf823c6f6c95c8310347a34660cd3dd267a89b2741");
}

TEST(SampledRound, TouchedNodesAreUniqueAndOnlineStakeConsistent) {
  Network net(config_with(0.1, 120, 17));
  RoundEngine engine(net, sampled_params_for(net));
  SparseRoundContext ctx;
  ctx.init_from(net);
  SparseRoundWorkspace ws;
  SparseRoundResult result;
  engine.run_round_sparse_into(result, ctx, ws);
  std::vector<bool> seen(net.node_count(), false);
  for (const SparseNodeRole& t : result.touched) {
    EXPECT_FALSE(seen[t.node]) << "node touched twice: " << t.node;
    seen[t.node] = true;
    if (ctx.online(t.node)) {
      EXPECT_EQ(t.reward_stake, ctx.index().stake_of(t.node));
    } else {
      EXPECT_EQ(t.reward_stake, 0);
    }
  }
  EXPECT_EQ(result.online_stake, ctx.online_stake());
  EXPECT_EQ(result.online_count, ctx.online_count());
}

}  // namespace
}  // namespace roleshare::sim
