#include "net/gossip.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace roleshare::net {
namespace {

// Ring topology 0 -> 1 -> 2 -> ... -> n-1 -> 0 makes path lengths exact.
Topology ring(std::size_t n) {
  std::vector<std::vector<ledger::NodeId>> adj(n);
  for (std::size_t v = 0; v < n; ++v)
    adj[v].push_back(static_cast<ledger::NodeId>((v + 1) % n));
  return Topology::from_adjacency(std::move(adj));
}

// Share of the online nodes whose arrival is at or before `deadline`.
double reached_share(const std::vector<TimeMs>& arrivals,
                     const RelaySet& relay, TimeMs deadline) {
  std::size_t online = 0;
  std::size_t reached = 0;
  for (std::size_t v = 0; v < arrivals.size(); ++v) {
    if (!relay.online[v]) continue;
    ++online;
    if (arrivals[v] <= deadline) ++reached;
  }
  return static_cast<double>(reached) / static_cast<double>(online);
}

TEST(Gossip, FullCooperationReachesEveryone) {
  util::Rng rng(1);
  const Topology t = ring(10);
  const UniformDelay delay(10.0, 10.0);
  const GossipEngine engine(t, delay);
  const RelaySet relay = RelaySet::all_cooperative(10);
  const auto arrivals = engine.propagate(0, 0.0, relay, rng);
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_DOUBLE_EQ(arrivals[v], 10.0 * static_cast<double>(v));
  }
  EXPECT_DOUBLE_EQ(reached_share(arrivals, relay, 90.0), 1.0);
}

TEST(Gossip, DefectorReceivesButDoesNotRelay) {
  util::Rng rng(1);
  const Topology t = ring(5);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(5);
  relay.relays[2] = false;  // node 2 defects
  const auto arrivals = engine.propagate(0, 0.0, relay, rng);
  EXPECT_DOUBLE_EQ(arrivals[1], 1.0);
  EXPECT_DOUBLE_EQ(arrivals[2], 2.0);  // still receives
  EXPECT_EQ(arrivals[3], kNever);      // cut off behind the defector
  EXPECT_EQ(arrivals[4], kNever);
}

TEST(Gossip, OfflineNodeNeverReceives) {
  util::Rng rng(1);
  const Topology t = ring(4);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(4);
  relay.online[1] = false;
  const auto arrivals = engine.propagate(0, 0.0, relay, rng);
  EXPECT_EQ(arrivals[1], kNever);
  EXPECT_EQ(arrivals[2], kNever);  // ring is cut
}

TEST(Gossip, OfflineOriginSendsNothing) {
  util::Rng rng(1);
  const Topology t = ring(4);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(4);
  relay.online[0] = false;
  const auto arrivals = engine.propagate(0, 0.0, relay, rng);
  for (const auto a : arrivals) EXPECT_EQ(a, kNever);
}

TEST(Gossip, DefectingOriginStillTransmits) {
  // A defector that *originates* a message (e.g. its own transaction)
  // still sends it; it only refuses to forward others' traffic.
  util::Rng rng(1);
  const Topology t = ring(4);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(4);
  relay.relays[0] = false;
  const auto arrivals = engine.propagate(0, 0.0, relay, rng);
  EXPECT_DOUBLE_EQ(arrivals[1], 1.0);
}

TEST(Gossip, StartOffsetShiftsArrivals) {
  util::Rng rng(1);
  const Topology t = ring(3);
  const UniformDelay delay(2.0, 2.0);
  const GossipEngine engine(t, delay);
  const RelaySet relay = RelaySet::all_cooperative(3);
  const auto arrivals = engine.propagate(0, 100.0, relay, rng);
  EXPECT_DOUBLE_EQ(arrivals[0], 100.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 102.0);
}

TEST(Gossip, DelayFactorScalesArrivals) {
  util::Rng rng(1);
  const Topology t = ring(3);
  const UniformDelay delay(2.0, 2.0);
  const GossipEngine slow(t, delay, 4.0);
  const RelaySet relay = RelaySet::all_cooperative(3);
  const auto arrivals = slow.propagate(0, 0.0, relay, rng);
  EXPECT_DOUBLE_EQ(arrivals[1], 8.0);
  EXPECT_DOUBLE_EQ(arrivals[2], 16.0);
}

TEST(Gossip, RemovingRelaysNeverImprovesReachability) {
  // Monotonicity: on a fixed topology with constant delays, disabling a
  // relay cannot make any node reachable sooner.
  util::Rng rng1(5);
  const Topology t = [&] {
    util::Rng trng(99);
    return Topology::random_k_out(60, 4, trng);
  }();
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);

  const RelaySet full = RelaySet::all_cooperative(60);
  const auto base = engine.propagate(0, 0.0, full, rng1);

  RelaySet degraded = full;
  util::Rng pick(7);
  for (int i = 0; i < 15; ++i)
    degraded.relays[static_cast<std::size_t>(pick.uniform_int(1, 59))] = false;
  util::Rng rng2(5);
  const auto worse = engine.propagate(0, 0.0, degraded, rng2);
  for (std::size_t v = 0; v < 60; ++v) {
    EXPECT_GE(worse[v], base[v]) << "node " << v;
  }
}

TEST(Gossip, ReachFractionCountsOnlineOnly) {
  RelaySet relay;
  relay.relays = {true, true, true, true};
  relay.online = {true, true, false, true};
  const std::vector<TimeMs> arrivals = {0.0, 5.0, 1.0, kNever};
  // Online: nodes 0, 1, 3; reached by t=6: nodes 0 and 1.
  EXPECT_DOUBLE_EQ(reached_share(arrivals, relay, 6.0), 2.0 / 3.0);
}

TEST(Gossip, RandomTopologyFullReachUnderStrongSynchrony) {
  util::Rng trng(11);
  const Topology t = Topology::random_k_out(200, 5, trng);
  const UniformDelay delay(20.0, 120.0);
  const GossipEngine engine(t, delay);
  const RelaySet relay = RelaySet::all_cooperative(200);
  util::Rng rng(12);
  const auto arrivals = engine.propagate(0, 0.0, relay, rng);
  // In a 5-out random digraph a node has in-degree 0 with probability
  // ~e^-5, so a handful of the 200 nodes can be unreachable; strong
  // synchrony still reaches (nearly) everyone within a generous deadline.
  EXPECT_GE(reached_share(arrivals, relay, 10'000.0), 0.97);
}

TEST(Gossip, SizeMismatchRejected) {
  util::Rng rng(1);
  const Topology t = ring(3);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(2);
  EXPECT_THROW(engine.propagate(0, 0.0, relay, rng), std::invalid_argument);
}

TEST(Gossip, RejectsNonFiniteDelayFactor) {
  const Topology t = ring(3);
  const UniformDelay delay(1.0, 1.0);
  EXPECT_THROW(GossipEngine(t, delay, kNever), std::invalid_argument);
  EXPECT_THROW(GossipEngine(t, delay, std::nan("")), std::invalid_argument);
}

// {v : arrival[v] <= deadline} as a byte mask.
std::vector<std::uint8_t> arrived_by(const std::vector<TimeMs>& arrival,
                                     TimeMs deadline) {
  std::vector<std::uint8_t> mask(arrival.size());
  for (std::size_t v = 0; v < arrival.size(); ++v)
    mask[v] = arrival[v] <= deadline ? 1 : 0;
  return mask;
}

TEST(Gossip, ReachPassMatchesDijkstraReachability) {
  const Topology t = ring(6);
  const UniformDelay delay(20.0, 120.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(6);
  relay.relays[3] = 0;  // node 3 receives but does not forward
  std::vector<std::uint8_t> mask;
  std::vector<ledger::NodeId> queue;
  for (ledger::NodeId o = 0; o < 6; ++o) {
    util::Rng rng(40 + o);
    const auto arrival = engine.propagate(o, 0.0, relay, rng);
    engine.reach_into(o, relay, mask, queue);
    EXPECT_EQ(mask, arrived_by(arrival, std::numeric_limits<TimeMs>::max()))
        << "origin " << o;
  }
  // From 0 the ring stops at the defector: hops 1, 2, 3.
  EXPECT_EQ(engine.reach_into(0, relay, mask, queue), 3u);
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{1, 1, 1, 1, 0, 0}));
  // The defector still transmits its own message around the whole ring.
  EXPECT_EQ(engine.reach_into(3, relay, mask, queue), 5u);
}

TEST(Gossip, ReversePassCountsHopsThroughRelaysOnly) {
  const Topology t = ring(5);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(5);
  relay.relays[1] = 0;
  std::vector<std::uint32_t> hops;
  std::vector<ledger::NodeId> queue;
  engine.hops_to_into(3, relay, hops, queue);
  // 2 -> 3 and 1 -> 2 -> 3, but 1 does not relay, so 0 cannot get there.
  EXPECT_EQ(hops, (std::vector<std::uint32_t>{kUnreached, kUnreached, 1, 0,
                                              kUnreached}));
}

TEST(Gossip, CertificateMarginCoversRoundoffAtTheBoundary) {
  // Fifteen 0.1 ms hops sum to 1.5000000000000002 in binary64, above
  // 15 × 0.1 = 1.5: at T = depth × max_delay × factor a bound without a
  // margin would count the last node in time when Dijkstra has it late.
  const Topology t = ring(16);
  const UniformDelay delay(0.1, 0.1);
  const GossipEngine engine(t, delay);
  const RelaySet relay = RelaySet::all_cooperative(16);
  util::Rng rng(1);
  const auto arrival = engine.propagate(0, 0.0, relay, rng);
  const TimeMs at = 15.0 * 0.1;
  ASSERT_EQ(at, 1.5);
  EXPECT_GT(arrival[15], at);
  EXPECT_FALSE(engine.certifies(15, at));
  EXPECT_FALSE(engine.certifies(15, std::nextafter(at, 0.0)));
  EXPECT_FALSE(engine.certifies(15, std::nextafter(at, kNever)));
  const TimeMs above = at * (1.0 + 1e-12);
  ASSERT_TRUE(engine.certifies(15, above));
  std::vector<std::uint8_t> mask;
  std::vector<ledger::NodeId> queue;
  engine.reach_into(0, relay, mask, queue);
  EXPECT_EQ(arrived_by(arrival, above), mask);

  // The Fig 3 shape: 20-120 ms hops, ×25 degraded, six hops against the
  // 20 s step deadline give exactly 18 s.
  const UniformDelay uniform(20.0, 120.0);
  const GossipEngine degraded(t, uniform, 25.0);
  EXPECT_FALSE(degraded.certifies(6, 18'000.0));
  EXPECT_FALSE(degraded.certifies(6, std::nextafter(18'000.0, 0.0)));
  EXPECT_FALSE(degraded.certifies(6, std::nextafter(18'000.0, kNever)));
  EXPECT_TRUE(degraded.certifies(6, 18'000.0 * (1.0 + 1e-12)));
  EXPECT_TRUE(degraded.certifies(6, kDefaultStepTimeoutMs));
  EXPECT_FALSE(degraded.certifies(7, kDefaultStepTimeoutMs));
}

TEST(Gossip, UnboundedDelaysNeverCertify) {
  // Every engine's delays are bounded by construction: an unbounded range
  // is refused before an engine can hold it.
  const Topology t = ring(3);
  const UniformDelay constant(1.0, 1.0);
  EXPECT_TRUE(GossipEngine(t, constant).certifies(2, 2.5));
  EXPECT_THROW(UniformDelay(1.0, kNever), std::invalid_argument);
}

TEST(ReachClasses, MutuallyReachingRelaysShareAClass) {
  // 0 <-> 1 -> 2 <-> 3: {0, 1} and {2, 3} are the two classes, and the
  // first reaches everything the second does.
  const Topology t = Topology::from_adjacency({{1}, {0, 2}, {3}, {2}});
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  const RelaySet relay = RelaySet::all_cooperative(4);
  ReachClasses classes;
  classes.reset(4);
  const std::uint32_t a = classes.classify(engine, relay, 1);
  EXPECT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes.classify(engine, relay, 0), a);
  EXPECT_EQ(classes.size(), 1u);  // 0 was labelled when 1's class was built
  const std::uint32_t b = classes.classify(engine, relay, 3);
  EXPECT_NE(a, b);
  EXPECT_EQ(classes.mask(a), (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(classes.mask(b), (std::vector<std::uint8_t>{0, 0, 1, 1}));
  // Representative 1 has eccentricity 2; 0 is one hop from it.
  EXPECT_EQ(classes.depth_bound(1), 2u);
  EXPECT_EQ(classes.depth_bound(0), 3u);
  EXPECT_EQ(classes.depth_bound(3), 1u);
  // reset() forgets the classes for the next relay set.
  classes.reset(4);
  EXPECT_EQ(classes.size(), 0u);
}

TEST(ReachClasses, OfflineAndNonRelayingOriginsShareNoClass) {
  const Topology t = ring(4);
  const UniformDelay delay(1.0, 1.0);
  const GossipEngine engine(t, delay);
  RelaySet relay = RelaySet::all_cooperative(4);
  relay.online[0] = 0;
  relay.relays[2] = 0;
  ReachClasses classes;
  classes.reset(4);
  EXPECT_EQ(classes.classify(engine, relay, 0), ReachClasses::kNone);
  EXPECT_EQ(classes.classify(engine, relay, 2), ReachClasses::kNone);
  EXPECT_EQ(classes.size(), 0u);
  // The offline origin sends nothing; the defector still sends its own.
  std::vector<std::uint8_t> mask;
  std::vector<ledger::NodeId> queue;
  EXPECT_EQ(engine.reach_into(0, relay, mask, queue), 0u);
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{0, 0, 0, 0}));
  EXPECT_EQ(engine.reach_into(2, relay, mask, queue), 1u);
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{0, 0, 1, 1}));
}

TEST(ReachClasses, IsolatedRelayIsItsOwnClass) {
  // Node 2 has no edges at all: its class reaches only itself, at depth 0,
  // which every deadline certifies.
  const Topology t = Topology::from_adjacency({{1}, {0}, {}});
  const UniformDelay delay(20.0, 120.0);
  const GossipEngine engine(t, delay, 300.0);
  const RelaySet relay = RelaySet::all_cooperative(3);
  ReachClasses classes;
  classes.reset(3);
  const std::uint32_t c = classes.classify(engine, relay, 2);
  EXPECT_NE(classes.classify(engine, relay, 0), c);
  EXPECT_EQ(classes.mask(c), (std::vector<std::uint8_t>{0, 0, 1}));
  EXPECT_EQ(classes.depth_bound(2), 0u);
  EXPECT_TRUE(engine.certifies(classes.depth_bound(2), 0.0));
  util::Rng rng(3);
  EXPECT_EQ(arrived_by(engine.propagate(2, 0.0, relay, rng), 0.0),
            classes.mask(c));
}

}  // namespace
}  // namespace roleshare::net
