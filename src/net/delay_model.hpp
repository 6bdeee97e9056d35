// Per-hop message delay models.
//
// Each gossip hop samples an independent delay. The synchrony controller
// (synchrony.hpp) scales these delays when the network degrades.
#pragma once

#include <memory>
#include <string>

#include "ledger/types.hpp"
#include "net/sim_time.hpp"
#include "util/rng.hpp"

namespace roleshare::net {

class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Samples one hop's propagation + processing delay, in ms (>= 0).
  virtual TimeMs sample(util::Rng& rng, ledger::NodeId from,
                        ledger::NodeId to) const = 0;

  /// Finite upper bound on every sample (up to one rounding of the
  /// sampling arithmetic), or kNever when samples are unbounded. The
  /// gossip reachability certificate (gossip.hpp) rests on it.
  virtual TimeMs max_delay() const = 0;

  virtual std::string name() const = 0;
};

/// Uniform delay on [lo, hi] ms — the default used by the Fig-3 scenarios.
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(TimeMs lo, TimeMs hi);
  TimeMs sample(util::Rng& rng, ledger::NodeId from,
                ledger::NodeId to) const override;
  TimeMs max_delay() const override;
  std::string name() const override;

 private:
  TimeMs lo_;
  TimeMs hi_;
};

/// Constant delay — degenerate model for unit tests.
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(TimeMs value);
  TimeMs sample(util::Rng& rng, ledger::NodeId from,
                ledger::NodeId to) const override;
  TimeMs max_delay() const override;
  std::string name() const override;

 private:
  TimeMs value_;
};

std::unique_ptr<DelayModel> make_uniform_delay(TimeMs lo, TimeMs hi);

}  // namespace roleshare::net
