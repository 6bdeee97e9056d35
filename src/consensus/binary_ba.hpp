// BinaryBA* (Fig 1-d) — per-node state machine, faithful to Gilad et al.
// (SOSP'17, Alg. 8): iterations of three voting sub-steps
//   A: vote current value; a block-hash quorum concludes with that block
//      (concluding in the very first iteration additionally casts a FINAL
//      vote — the path to final, not tentative, consensus),
//   B: a quorum for the empty hash concludes with the empty block,
//   C: on no quorum, flip the common coin to pick the next value.
//
// The machine is network-agnostic: the driver feeds each step's counted
// outcome (quorum winner or timeout + coin bit) into `advance`.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/hash.hpp"

namespace roleshare::consensus {

enum class BaStatus : std::uint8_t {
  Running,
  ConcludedBlock,  // agreed on the non-empty block
  ConcludedEmpty,  // agreed on the empty block
  Exhausted,       // hit max iterations without agreement ("no block")
};

class BinaryBaState {
 public:
  /// `initial` is this node's reduction output; `empty_hash` the round's
  /// empty-block hash; `max_iterations` the paper's 11.
  BinaryBaState(crypto::Hash256 initial, crypto::Hash256 empty_hash,
                std::uint32_t max_iterations);

  BaStatus status() const { return status_; }
  bool running() const { return status_ == BaStatus::Running; }

  /// The value this node votes in the current sub-step.
  const crypto::Hash256& vote_value() const { return current_; }

  /// Global step number of the current sub-step (for committee sortition):
  /// kFirstBinaryStep + 3*iteration + sub_step.
  std::uint32_t step_number() const;

  /// 1-based iteration count (the paper's k).
  std::uint32_t iteration() const { return iteration_ + 1; }

  /// Feeds the counted result of the current sub-step. `counted` is the
  /// quorum winner (nullopt = timeout / no quorum); `coin` is the common
  /// coin observed in sub-step C (ignored elsewhere; defaults used when the
  /// node saw no votes at all).
  void advance(std::optional<crypto::Hash256> counted, bool coin = false);

  /// The agreed value; only meaningful when concluded.
  const crypto::Hash256& result() const { return result_; }

  /// True when the node concluded on the block in iteration 1 — it then
  /// participates in the FINAL vote for final (vs tentative) consensus.
  bool concluded_in_first_iteration() const {
    return status_ == BaStatus::ConcludedBlock && concluding_iteration_ == 1;
  }

  /// The node's FINAL vote: the block it concluded on in iteration 1,
  /// nullopt otherwise. A concluded block is never the empty hash.
  std::optional<crypto::Hash256> final_vote() const {
    if (!concluded_in_first_iteration()) return std::nullopt;
    return result_;
  }

 private:
  crypto::Hash256 initial_;
  crypto::Hash256 empty_hash_;
  crypto::Hash256 current_;
  crypto::Hash256 result_;
  std::uint32_t max_iterations_;
  std::uint32_t iteration_ = 0;  // 0-based
  std::uint32_t sub_step_ = 0;   // 0 = A, 1 = B, 2 = C
  std::uint32_t concluding_iteration_ = 0;
  BaStatus status_ = BaStatus::Running;
};

}  // namespace roleshare::consensus
