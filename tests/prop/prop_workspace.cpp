// Property suite: RoundWorkspace dirty-reuse equivalence (DESIGN.md §8).
//
// The workspace contract (sim/round_workspace.hpp): between calls only
// buffer *capacity* matters — reusing a workspace scribbled over by a
// different network/configuration must be bit-identical to running with
// a fresh one, and the fully recycled run_round_into path must match
// both regardless of what the recycled RoundResult previously held.
// Here the "different configuration" is a random draw, not a
// handpicked one.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "consensus/params.hpp"
#include "gen/domain_gen.hpp"
#include "sim/network.hpp"
#include "sim/round_engine.hpp"
#include "sim/round_workspace.hpp"
#include "util/proptest.hpp"

namespace {

using roleshare::sim::Network;
using roleshare::sim::NetworkConfig;
using roleshare::sim::RoundEngine;
using roleshare::sim::RoundResult;
using roleshare::sim::RoundWorkspace;
using roleshare::util::proptest::Verdict;
namespace pgen = roleshare::util::proptest::gen;

// Strict equality — the reuse contract promises bit-identical results,
// so doubles compare with ==, not a tolerance.
Verdict same_result(const RoundResult& a, const RoundResult& b,
                    const std::string& label) {
  const auto fail = [&](const std::string& what) {
    return Verdict{false, label + ": " + what};
  };
  if (a.round != b.round) return fail("round number differs");
  if (a.outcomes != b.outcomes) return fail("outcomes differ");
  if (a.live_count != b.live_count) return fail("live_count differs");
  if (a.final_fraction != b.final_fraction ||
      a.tentative_fraction != b.tentative_fraction ||
      a.none_fraction != b.none_fraction)
    return fail("fractions differ");
  if (a.non_empty_block != b.non_empty_block)
    return fail("non_empty_block differs");
  if (a.proposals != b.proposals) return fail("proposal count differs");
  if (a.synchrony != b.synchrony) return fail("synchrony state differs");
  if (a.roles.has_value() != b.roles.has_value() ||
      a.roles_true.has_value() != b.roles_true.has_value())
    return fail("role snapshot presence differs");
  if (a.roles.has_value()) {
    if (a.roles->roles() != b.roles->roles() ||
        a.roles->stakes() != b.roles->stakes())
      return fail("observed role snapshot differs");
  }
  if (a.roles_true.has_value()) {
    if (a.roles_true->roles() != b.roles_true->roles() ||
        a.roles_true->stakes() != b.roles_true->stakes())
      return fail("true role snapshot differs");
  }
  return Verdict{};
}

}  // namespace

// A workspace dirtied by a random *other* network, then reused on the
// network under test, must reproduce the fresh-path rounds exactly —
// as must run_round_into with a recycled RoundResult.
PROP_TEST_WITH_PARAMS(PropWorkspace, DirtyReuseIsBitIdentical, 8) {
  prop.check(
      pgen::tuple_of(roleshare::testgen::network_config(24, 48),
                     roleshare::testgen::network_config(24, 48)),
      [](const std::tuple<NetworkConfig, NetworkConfig>& t) {
        const auto& [dirty_config, config] = t;
        const auto params_for = [](Network& net) {
          return roleshare::consensus::ConsensusParams::scaled_for(
              net.accounts().total_stake());
        };

        // Dirty a workspace (and a result) on an unrelated network.
        RoundWorkspace ws;
        RoundResult recycled;
        {
          Network dirty_net(dirty_config);
          RoundEngine dirty_engine(dirty_net, params_for(dirty_net));
          dirty_engine.run_round_into(recycled, ws);
        }

        // Path 1: fresh allocations every round.
        Network net_fresh(config);
        RoundEngine engine_fresh(net_fresh, params_for(net_fresh));
        // Path 2: caller-owned dirty workspace.
        Network net_ws(config);
        RoundEngine engine_ws(net_ws, params_for(net_ws));
        // Path 3: fully recycled result + workspace.
        Network net_into(config);
        RoundEngine engine_into(net_into, params_for(net_into));

        for (std::size_t r = 0; r < 2; ++r) {
          const RoundResult fresh = engine_fresh.run_round();
          RoundResult reused;  // fresh result on the dirty workspace
          engine_ws.run_round_into(reused, ws);
          engine_into.run_round_into(recycled, ws);

          Verdict v = same_result(fresh, reused,
                                  "round " + std::to_string(r) +
                                      " fresh result, dirty workspace vs "
                                      "fresh");
          if (!v.ok) return v;
          v = same_result(fresh, recycled,
                          "round " + std::to_string(r) +
                              " run_round_into vs fresh");
          if (!v.ok) return v;
          if (!(net_fresh.chain().tip().hash() == net_ws.chain().tip().hash()) ||
              !(net_fresh.chain().tip().hash() ==
                net_into.chain().tip().hash()))
            return Verdict{false, "round " + std::to_string(r) +
                                      ": chains diverged across paths"};
        }
        return Verdict{};
      },
      [](const std::tuple<NetworkConfig, NetworkConfig>& t) {
        const auto& [dirty, config] = t;
        return "dirty{nodes=" + std::to_string(dirty.node_count) +
               " seed=" + std::to_string(dirty.seed) + "} test{nodes=" +
               std::to_string(config.node_count) +
               " seed=" + std::to_string(config.seed) +
               " defect=" + std::to_string(config.defection_rate) + "}";
      });
}
