// Drives one full round of Algorand over the simulated network:
// sortition → block proposals → gossip → Reduction → BinaryBA* → FINAL
// vote — then reports, per node, whether it extracted a final block, a
// tentative block, or no block at all (the Fig-3 metric), plus the role
// snapshot the reward schemes consume.
//
// The engine advances the protocol in lock-step steps: per step it elects
// the committee, lets cooperative members emit votes, propagates each vote
// through the relay subgraph (defectors receive but do not forward), and
// feeds each node's delay-filtered view into that node's BA state machine.
//
// Within-run parallelism: every per-node loop (sortition draws, vote
// verification, per-node tallies, gossip fan-out, BA advancement) runs
// through a util::InnerExecutor over the pool handed to the constructor.
// Randomness that those loops consume comes from per-origin streams
// round_rng.split("gossip").split(step).split(origin) — one independent
// stream per (step, origin) — so the engine's output is bit-identical for
// every inner worker count, including fully serial (DESIGN.md §4).
#pragma once

#include <optional>
#include <vector>

#include "consensus/params.hpp"
#include "crypto/sortition.hpp"
#include "econ/role_snapshot.hpp"
#include "net/gossip.hpp"
#include "sim/network.hpp"
#include "sim/round_workspace.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::sim {

/// A round's summary (NodeOutcome and RoundSummary: sampled_round.hpp)
/// plus its per-node outcomes and role snapshots.
struct RoundResult : RoundSummary {
  /// Outcome per node, indexed by node id over the FULL population
  /// (offline and departed nodes count as NoBlock).
  std::vector<NodeOutcome> outcomes;
  /// Role snapshot of *observed* roles, aligned with node ids (defectors
  /// hide their roles and appear as Others; offline nodes carry stake 0 so
  /// schemes pay them nothing).
  std::optional<econ::RoleSnapshot> roles;
  /// Snapshot of *true* sortition roles including hidden (defecting)
  /// leaders and committee members — what each node privately knows about
  /// itself; feeds the strategic (game-theoretic) loop.
  std::optional<econ::RoleSnapshot> roles_true;
};

class RoundEngine {
 public:
  /// `inner_pool` (optional, borrowed, must outlive the engine) fans the
  /// per-node loops of each round out across its workers; nullptr runs
  /// them inline. Results are bit-identical either way.
  RoundEngine(Network& network, consensus::ConsensusParams params,
              util::ThreadPool* inner_pool = nullptr);

  /// Runs the next round (chain height determines the round number),
  /// appends the agreed block to the network's chain, and returns the
  /// per-node outcomes: run_round_into on a fresh workspace and result.
  RoundResult run_round();

  /// The reusable form — the round's working buffers come from `ws` and
  /// the outputs are rebuilt in place inside `result` (its vectors and
  /// role snapshots keep their capacity; see round_workspace.hpp for the
  /// reuse contract). In steady state this is the zero-allocation path.
  /// Results are bit-identical to run_round() regardless of what either
  /// object previously held.
  ///
  /// Under CommitteeModel::Sampled this dispatches to the sparse core on a
  /// context rebuilt from the ledger (O(N) per round) and expands the full
  /// RoundResult — the dense evaluation of the Sampled semantics.
  void run_round_into(RoundResult& result, RoundWorkspace& ws);

  /// The O(committee · log N) round path (requires CommitteeModel::
  /// Sampled; defined in sampled_round.cpp): runs the sparse core on a
  /// caller-maintained context — NOT rebuilt here; the caller owns keeping
  /// it in sync with the network via SparseRoundContext::refresh_node —
  /// and reports only aggregates plus the touched-node roles. Bit-identical
  /// to run_round_into's sampled dispatch whenever `ctx` matches the
  /// ledger (the property tests/prop/prop_sparse.cpp locks).
  void run_round_sparse_into(SparseRoundResult& result,
                             const SparseRoundContext& ctx,
                             SparseRoundWorkspace& ws);

  const consensus::ConsensusParams& params() const { return params_; }
  const util::InnerExecutor& executor() const { return exec_; }

 private:
  Network& network_;
  consensus::ConsensusParams params_;
  util::InnerExecutor exec_;
  /// The network's signature first-block states, built once here under
  /// CommitteeModel::PerNodeVrf (the engine is bound to one Network,
  /// whose keys never change) and empty under Sampled, which draws no
  /// VRF.
  crypto::SignerTable signers_;
};

}  // namespace roleshare::sim
