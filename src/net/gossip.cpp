#include "net/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/require.hpp"

namespace roleshare::net {

RelaySet RelaySet::all_cooperative(std::size_t n) {
  RelaySet rs;
  rs.relays.assign(n, 1);
  rs.online.assign(n, 1);
  return rs;
}

GossipEngine::GossipEngine(const Topology& topology, UniformDelay delays,
                           double delay_factor)
    : topology_(topology), delays_(delays), delay_factor_(delay_factor) {
  RS_REQUIRE(std::isfinite(delay_factor), "delay_factor must be finite");
  RS_REQUIRE(delay_factor >= 1.0, "delay factor >= 1");
}

std::vector<TimeMs> GossipEngine::propagate(ledger::NodeId origin,
                                            TimeMs start,
                                            const RelaySet& relay_set,
                                            util::Rng& rng) const {
  std::vector<TimeMs> arrival;
  GossipScratch scratch;
  propagate_into(origin, start, relay_set, rng, arrival, scratch);
  return arrival;
}

void GossipEngine::propagate_into(ledger::NodeId origin, TimeMs start,
                                  const RelaySet& relay_set, util::Rng& rng,
                                  std::vector<TimeMs>& arrival,
                                  GossipScratch& scratch) const {
  const std::size_t n = topology_.node_count();
  RS_REQUIRE(origin < n, "origin out of range");
  RS_REQUIRE(relay_set.relays.size() == n && relay_set.online.size() == n,
             "relay set size mismatch");

  arrival.assign(n, kNever);
  if (!relay_set.online[origin]) return;

  // Min-heap over (time, node) on the scratch vector: the same binary-heap
  // algorithms priority_queue wraps, minus its per-call construction. Pop
  // order — and therefore every sample drawn from rng — is identical.
  using Entry = std::pair<TimeMs, ledger::NodeId>;
  std::vector<Entry>& frontier = scratch.frontier;
  frontier.clear();
  const std::greater<> later{};
  arrival[origin] = start;
  frontier.emplace_back(start, origin);

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), later);
    const auto [t, v] = frontier.back();
    frontier.pop_back();
    if (t > arrival[v]) continue;  // stale entry
    // The origin always transmits its own message; other nodes forward only
    // if they relay.
    if (v != origin && !relay_set.relays[v]) continue;
    for (const ledger::NodeId to : topology_.out_neighbors(v)) {
      if (!relay_set.online[to]) continue;
      const TimeMs hop = delays_.sample(rng) * delay_factor_;
      const TimeMs cand = t + hop;
      if (cand < arrival[to]) {
        arrival[to] = cand;
        frontier.emplace_back(cand, to);
        std::push_heap(frontier.begin(), frontier.end(), later);
      }
    }
  }
}

std::uint32_t GossipEngine::reach_into(ledger::NodeId origin,
                                       const RelaySet& relay_set,
                                       std::vector<std::uint8_t>& mask,
                                       std::vector<ledger::NodeId>& queue) const {
  const std::size_t n = topology_.node_count();
  RS_REQUIRE(origin < n, "origin out of range");
  RS_REQUIRE(relay_set.relays.size() == n && relay_set.online.size() == n,
             "relay set size mismatch");

  mask.assign(n, 0);
  queue.clear();
  if (!relay_set.online[origin]) return 0;
  mask[origin] = 1;
  queue.push_back(origin);
  // queue[head, level_end) is the rest of the current hop level.
  std::uint32_t eccentricity = 0;
  std::size_t level_end = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (head == level_end) {
      ++eccentricity;
      level_end = queue.size();
    }
    const ledger::NodeId v = queue[head];
    if (v != origin && !relay_set.relays[v]) continue;
    for (const ledger::NodeId to : topology_.out_neighbors(v)) {
      if (!relay_set.online[to] || mask[to]) continue;
      mask[to] = 1;
      queue.push_back(to);
    }
  }
  return eccentricity;
}

void GossipEngine::hops_to_into(ledger::NodeId target,
                                const RelaySet& relay_set,
                                std::vector<std::uint32_t>& hops,
                                std::vector<ledger::NodeId>& queue) const {
  const std::size_t n = topology_.node_count();
  RS_REQUIRE(target < n, "target out of range");
  RS_REQUIRE(relay_set.relays.size() == n && relay_set.online.size() == n,
             "relay set size mismatch");

  hops.assign(n, kUnreached);
  queue.clear();
  if (!relay_set.online[target]) return;
  hops[target] = 0;
  queue.push_back(target);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ledger::NodeId w = queue[head];
    for (const ledger::NodeId u : topology_.in_neighbors(w)) {
      if (hops[u] != kUnreached || !relay_set.online[u] ||
          !relay_set.relays[u])
        continue;
      hops[u] = hops[w] + 1;
      queue.push_back(u);
    }
  }
}

bool GossipEngine::certifies(std::uint32_t depth, TimeMs timeout) const {
  const TimeMs max_hop = delays_.max_delay();
  // Dijkstra's arrival at a node d hops out is at most the floating-point
  // sum of the d hop delays along a shortest-hop path, and each rounding
  // step is monotone. That sum exceeds d × max_hop × factor by at most
  // (d + 4) units of roundoff (relative); the margin is 8 times that.
  const double d = static_cast<double>(depth);
  const double margin = 1.0 + 4.0 * (d + 4.0) *
                                  std::numeric_limits<double>::epsilon();
  return d * max_hop * delay_factor_ * margin <= timeout;
}

void ReachClasses::reset(std::size_t node_count) {
  count_ = 0;
  class_of_.assign(node_count, kUnknown);
  depth_.resize(node_count);
}

std::uint32_t ReachClasses::classify(const GossipEngine& gossip,
                                     const RelaySet& relay_set,
                                     ledger::NodeId origin) {
  RS_REQUIRE(origin < class_of_.size(), "origin outside the reset size");
  if (class_of_[origin] != kUnknown) return class_of_[origin];
  if (!relay_set.online[origin] || !relay_set.relays[origin])
    return class_of_[origin] = kNone;

  if (masks_.size() == count_) masks_.emplace_back();
  const auto id = static_cast<std::uint32_t>(count_++);
  std::vector<std::uint8_t>& mask = masks_[id];
  const std::uint32_t eccentricity =
      gossip.reach_into(origin, relay_set, mask, queue_);
  gossip.hops_to_into(origin, relay_set, hops_, queue_);
  // Members: reached from the representative and reaching it back.
  for (std::size_t v = 0; v < class_of_.size(); ++v) {
    if (!mask[v] || hops_[v] == kUnreached) continue;
    class_of_[v] = id;
    depth_[v] = hops_[v] + eccentricity;
  }
  return id;
}

std::size_t ReachClasses::capacity_bytes() const {
  std::size_t total = masks_.capacity() * sizeof(masks_[0]);
  for (const auto& mask : masks_) total += mask.capacity();
  total += (class_of_.capacity() + depth_.capacity() + hops_.capacity()) *
           sizeof(std::uint32_t);
  return total + queue_.capacity() * sizeof(ledger::NodeId);
}

}  // namespace roleshare::net
