// Gossip propagation engine.
//
// Computes, for a message originated at one node, the earliest arrival time
// at every node, given that only `relaying` nodes forward messages
// (defectors and faulty nodes receive but do not relay — the behavioural
// root of the Fig-3 collapse). Arrival times are shortest paths through the
// relay subgraph with independently sampled hop delays (Dijkstra).
//
// Certified reachability (DESIGN.md §5): a caller that only asks "did the
// message arrive by the timeout?" can skip the arrival times when
// certifies() proves that every node a propagation reaches, it reaches in
// time. Plain reachability (a breadth-first pass, no randomness) then
// answers the question exactly. ReachClasses shares one such pass among
// all origins with the same reach set.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ledger/types.hpp"
#include "net/delay_model.hpp"
#include "net/sim_time.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace roleshare::net {

/// Node flags consumed by the gossip engine for one round. Byte masks, not
/// vector<bool>: the hot path indexes them per hop, and byte loads avoid
/// the bit-extraction dance (and allow writing flags from parallel chunks).
struct RelaySet {
  /// relays[v] != 0 — v forwards messages it receives (cooperative
  /// behaviour).
  std::vector<std::uint8_t> relays;
  /// online[v] != 0 — v receives messages at all (0 for faulty nodes).
  std::vector<std::uint8_t> online;

  static RelaySet all_cooperative(std::size_t n);
};

/// Reusable working memory for one propagate_into call. Owned by the
/// caller (one per worker thread) so steady-state propagation performs no
/// heap allocation once the heap vector has reached its high-water mark.
struct GossipScratch {
  std::vector<std::pair<TimeMs, ledger::NodeId>> frontier;
};

class GossipEngine {
 public:
  /// `delay_factor` scales every sampled hop delay (synchrony
  /// degradation). Every hop delivers its copy of a message: the engine
  /// has no loss.
  GossipEngine(const Topology& topology, UniformDelay delays,
               double delay_factor = 1.0);

  /// Earliest arrival time (origin transmits at `start`) at every node, or
  /// kNever if unreachable. The origin itself receives at `start`.
  /// Offline nodes never receive; non-relaying nodes receive but do not
  /// forward.
  std::vector<TimeMs> propagate(ledger::NodeId origin, TimeMs start,
                                const RelaySet& relay_set,
                                util::Rng& rng) const;

  /// Allocation-free form: writes arrival times into `arrival` (resized to
  /// node_count) and runs Dijkstra on `scratch`'s reused binary heap.
  /// Bit-identical to propagate() — same visit order, same samples drawn
  /// from `rng`.
  void propagate_into(ledger::NodeId origin, TimeMs start,
                      const RelaySet& relay_set, util::Rng& rng,
                      std::vector<TimeMs>& arrival,
                      GossipScratch& scratch) const;

  /// Breadth-first reach pass under propagate_into's rules: mask[v] = 1
  /// exactly when propagate_into's arrival at v is < kNever (offline
  /// nodes never receive; only the origin and relaying nodes send).
  /// Draws no randomness. Returns the origin's eccentricity: the largest
  /// hop count to a reached node (0 for an offline origin).
  std::uint32_t reach_into(ledger::NodeId origin, const RelaySet& relay_set,
                           std::vector<std::uint8_t>& mask,
                           std::vector<ledger::NodeId>& queue) const;

  /// Reverse pass: hops[u] is the fewest hops over which u reaches
  /// `target` when u and every node after it but the target are online
  /// relays; hops[target] = 0 (when the target is online) and kUnreached
  /// everywhere else.
  void hops_to_into(ledger::NodeId target, const RelaySet& relay_set,
                    std::vector<std::uint32_t>& hops,
                    std::vector<ledger::NodeId>& queue) const;

  /// True when a propagation from time 0 whose reached nodes all lie
  /// within `depth` hops of the origin reaches each of them by `timeout`:
  /// depth × max_delay × delay_factor is at most `timeout` after a
  /// floating-point margin (DESIGN.md §5 gives the argument; UniformDelay
  /// bounds every draw, and the engine has no loss).
  bool certifies(std::uint32_t depth, TimeMs timeout) const;

 private:
  const Topology& topology_;
  UniformDelay delays_;
  double delay_factor_;
};

/// Hop count of a node a reach pass did not reach.
inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// Reach classes of one relay set. A relaying origin o joins the class of
/// representative r when each reaches the other, so both reach the same
/// nodes: one forward pass from r gives every member's reach mask, and
/// hops(o -> r) + eccentricity(r) bounds o's hop depth. A class is built
/// on the first classify() of any member, with one forward and one
/// reverse pass from that member as representative, and every member is
/// labelled at once. Buffers keep their capacity across reset() calls.
class ReachClasses {
 public:
  /// classify() result for an offline or non-relaying origin: such an
  /// origin's reach set differs from every relay's, so it shares no class.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max() - 1;

  /// Forgets every class (a new relay set over `node_count` nodes).
  void reset(std::size_t node_count);

  /// The class of `origin` under `relay_set`, building it on first use.
  /// Not thread-safe; `relay_set` must not change until the next reset().
  std::uint32_t classify(const GossipEngine& gossip,
                         const RelaySet& relay_set, ledger::NodeId origin);

  /// Upper bound on the hop depth of a member (classify() != kNone).
  std::uint32_t depth_bound(ledger::NodeId member) const {
    return depth_[member];
  }

  /// mask(c)[v] != 0 exactly when a propagation from any member of class
  /// c reaches v.
  const std::vector<std::uint8_t>& mask(std::uint32_t c) const {
    return masks_[c];
  }

  /// Classes built since the last reset().
  std::size_t size() const { return count_; }

  std::size_t capacity_bytes() const;

 private:
  static constexpr std::uint32_t kUnknown =
      std::numeric_limits<std::uint32_t>::max();

  std::vector<std::vector<std::uint8_t>> masks_;  // the first count_ live
  std::size_t count_ = 0;
  std::vector<std::uint32_t> class_of_;  // per node: kUnknown, kNone or id
  std::vector<std::uint32_t> depth_;     // per member: the depth bound
  std::vector<std::uint32_t> hops_;      // reverse-pass scratch
  std::vector<ledger::NodeId> queue_;
};

}  // namespace roleshare::net
