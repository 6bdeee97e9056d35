// Property suite: certified reachability against exact Dijkstra gossip
// (DESIGN.md §5, "Certified reachability").
//
// Over random k-out digraphs and hand-built shapes (ring, two-way line,
// star), random relay/online masks, uniform and zero-width hop delays and
// delay factors 1-300, for every origin:
//   - the reach pass's mask is exactly {v : propagate_into arrival < kNever};
//   - a reach class's bound is never below a member's true BFS depth, and
//     the class mask is the member's own reach mask;
//   - whenever certifies() holds for that depth (or that class bound) at
//     a timeout T, {v : arrival <= T} is exactly the mask.
// Timeouts are drawn around depth × max_delay × factor, including points a
// few units of roundoff to either side of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/delay_model.hpp"
#include "net/gossip.hpp"
#include "net/topology.hpp"
#include "util/proptest.hpp"
#include "util/rng.hpp"

namespace {

using roleshare::ledger::NodeId;
using roleshare::net::GossipEngine;
using roleshare::net::ReachClasses;
using roleshare::net::RelaySet;
using roleshare::net::TimeMs;
using roleshare::net::Topology;
using roleshare::util::Rng;
using roleshare::util::proptest::Verdict;
namespace pgen = roleshare::util::proptest::gen;

enum class Shape : std::int64_t { KOut, Ring, Line, Star };

struct Case {
  Shape shape = Shape::KOut;
  std::size_t n = 2;
  std::size_t k = 1;          // k-out fan-out (clamped below n)
  double relay_share = 1.0;   // P(node relays)
  double online_share = 1.0;  // P(node is online)
  bool constant = false;      // zero-width range [lo, lo] instead
  double lo = 0.0;
  double width = 0.0;         // Uniform hi = lo + width
  double factor = 1.0;
  double timeout_scale = 1.0;  // T = scale × depth × max_delay × factor
  std::uint64_t seed = 0;      // topology, masks and delay draws
};

std::string describe(const Case& c) {
  std::ostringstream out;
  out << "{shape=" << static_cast<int>(c.shape) << " n=" << c.n
      << " k=" << c.k << " relay=" << c.relay_share
      << " online=" << c.online_share
      << (c.constant ? " Constant(" : " Uniform(") << c.lo;
  if (!c.constant) out << ", " << c.lo + c.width;
  out.precision(17);
  out << ") factor=" << c.factor << " scale=" << c.timeout_scale
      << " seed=" << c.seed << "}";
  return out.str();
}

roleshare::util::proptest::Gen<Case> cases() {
  // Half the scales sit within a few units of roundoff of 1, where a
  // certificate without its margin would be unsound.
  const auto scale = pgen::one_of<double>(
      {pgen::real_range(0.5, 2.0),
       pgen::element_of<double>({1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 + 1e-14,
                                 1.0 + 3e-14, 1.0 + 1e-13, 1.0 + 1e-12})});
  return pgen::tuple_of(
             pgen::int_range(0, 3), pgen::size_range(2, 48),
             pgen::size_range(1, 5), pgen::real_range(0.0, 1.0),
             pgen::real_range(0.5, 1.0), pgen::boolean(),
             pgen::real_range(0.0, 100.0), pgen::real_range(0.0, 200.0),
             pgen::one_of<double>({pgen::real_range(1.0, 300.0),
                                   pgen::element_of<double>({1.0, 4.0, 25.0,
                                                             300.0})}),
             scale, pgen::int_range(0, std::int64_t{1} << 40))
      .map([](const auto& t) {
        Case c;
        c.shape = static_cast<Shape>(std::get<0>(t));
        c.n = std::get<1>(t);
        c.k = std::get<2>(t);
        c.relay_share = std::get<3>(t);
        c.online_share = std::get<4>(t);
        c.constant = std::get<5>(t);
        c.lo = std::get<6>(t);
        c.width = std::get<7>(t);
        c.factor = std::get<8>(t);
        c.timeout_scale = std::get<9>(t);
        c.seed = static_cast<std::uint64_t>(std::get<10>(t));
        return c;
      });
}

Topology build_topology(const Case& c, Rng& rng) {
  const std::size_t n = c.n;
  std::vector<std::vector<NodeId>> adj(n);
  switch (c.shape) {
    case Shape::KOut:
      return Topology::random_k_out(n, std::min(c.k, n - 1), rng);
    case Shape::Ring:
      for (std::size_t v = 0; v < n; ++v)
        adj[v].push_back(static_cast<NodeId>((v + 1) % n));
      break;
    case Shape::Line:
      for (std::size_t v = 0; v + 1 < n; ++v) {
        adj[v].push_back(static_cast<NodeId>(v + 1));
        adj[v + 1].push_back(static_cast<NodeId>(v));
      }
      break;
    case Shape::Star:
      for (std::size_t v = 1; v < n; ++v) {
        adj[0].push_back(static_cast<NodeId>(v));
        adj[v].push_back(0);
      }
      break;
  }
  return Topology::from_adjacency(std::move(adj));
}

std::vector<std::uint8_t> arrived_by(const std::vector<TimeMs>& arrival,
                                     TimeMs deadline) {
  std::vector<std::uint8_t> mask(arrival.size());
  for (std::size_t v = 0; v < arrival.size(); ++v)
    mask[v] = arrival[v] <= deadline ? 1 : 0;
  return mask;
}

Verdict check_case(const Case& c) {
  Rng rng(c.seed);
  const Topology topology = build_topology(c, rng);
  RelaySet relay;
  relay.relays.resize(c.n);
  relay.online.resize(c.n);
  for (std::size_t v = 0; v < c.n; ++v) {
    relay.online[v] = rng.bernoulli(c.online_share) ? 1 : 0;
    relay.relays[v] = rng.bernoulli(c.relay_share) ? 1 : 0;
  }
  const roleshare::net::UniformDelay delays(
      c.lo, c.constant ? c.lo : c.lo + c.width);
  const GossipEngine engine(topology, delays, c.factor);
  const auto timeout_for = [&](std::uint32_t depth) {
    return c.timeout_scale * static_cast<double>(depth) *
           delays.max_delay() * c.factor;
  };

  ReachClasses classes;
  classes.reset(c.n);
  std::vector<TimeMs> arrival;
  roleshare::net::GossipScratch scratch;
  std::vector<std::uint8_t> mask;
  std::vector<NodeId> queue;
  for (NodeId o = 0; o < c.n; ++o) {
    const auto fail = [&](const std::string& what) {
      return Verdict{false, "origin " + std::to_string(o) + ": " + what};
    };
    Rng draws(rng.derive_seed(o));
    engine.propagate_into(o, 0.0, relay, draws, arrival, scratch);
    const std::uint32_t depth = engine.reach_into(o, relay, mask, queue);
    if (mask != arrived_by(arrival, std::numeric_limits<TimeMs>::max()))
      return fail("reach mask differs from Dijkstra's reach set");
    const TimeMs t_depth = timeout_for(depth);
    if (engine.certifies(depth, t_depth) &&
        arrived_by(arrival, t_depth) != mask)
      return fail("certified at its own depth but a reached node is late");

    const std::uint32_t cls = classes.classify(engine, relay, o);
    if (!relay.online[o] || !relay.relays[o]) {
      if (cls != ReachClasses::kNone)
        return fail("an offline or non-relaying origin joined a class");
      continue;
    }
    if (cls == ReachClasses::kNone) return fail("a relaying origin has no class");
    if (classes.mask(cls) != mask) return fail("class mask differs");
    const std::uint32_t bound = classes.depth_bound(o);
    if (bound < depth)
      return fail("class bound " + std::to_string(bound) +
                  " is below the true depth " + std::to_string(depth));
    const TimeMs t_bound = timeout_for(bound);
    if (engine.certifies(bound, t_bound) &&
        arrived_by(arrival, t_bound) != mask)
      return fail("certified by its class bound but a reached node is late");
  }
  return Verdict{};
}

}  // namespace

PROP_TEST_WITH_PARAMS(PropGossip, CertifiedReachabilityMatchesDijkstra, 300) {
  prop.check(cases(), check_case, [](const Case& c) { return describe(c); });
}
