// Algorand task-cost model (paper §III-A, Tables I & II).
//
// Per-task costs are micro-Algos (doubles, since they parameterize analytic
// bounds). Eq (1): c_fix = c_ve + c_se + c_so + c_go + c_vs + c_vc.
// Eq (2): leaders pay c_fix + c_bl; committee members pay
// c_fix + c_bs + c_vo; other online nodes pay c_fix. Defectors pay only
// c_so (they still run sortition to stay in the network).
#pragma once

#include <array>
#include <string_view>

#include "consensus/roles.hpp"

namespace roleshare::econ {

/// Per-task costs in micro-Algos.
struct TaskCosts {
  double cve = 0.2;  // transaction verification
  double cse = 0.2;  // seed generation
  double cso = 5.0;  // sortition algorithm
  double cvs = 0.2;  // verify sortition proofs
  double cbl = 10.0; // block proposition (leaders only)
  double cgo = 0.2;  // gossiping
  double cbs = 2.0;  // block selection (committee only)
  double cvo = 4.0;  // voting (committee only)
  double cvc = 0.2;  // vote counting

  /// Throws std::invalid_argument if any cost is negative.
  void validate() const;
};

/// Role-level costs derived from task costs — the paper's c_L, c_M, c_K.
class CostModel {
 public:
  /// Defaults reproduce §V-A: c_L = 16, c_M = 12, c_K = 6, c_so = 5 µAlgos.
  explicit CostModel(TaskCosts tasks = TaskCosts{});

  /// Directly specifies role costs.
  /// Requires c_leader >= c_committee >= c_other >= c_sortition >= 0.
  static CostModel from_role_costs(double c_leader, double c_committee,
                                   double c_other, double c_sortition);

  const TaskCosts& tasks() const { return tasks_; }

  /// Eq (1): cost common to every cooperative node.
  double fixed_cost() const;

  /// Eq (2): cost of cooperation for a node in the given role.
  double cooperation_cost(consensus::Role role) const;

  double leader_cost() const;     // c_L
  double committee_cost() const;  // c_M
  double other_cost() const;      // c_K

  /// Cost a defector still pays (sortition only).
  double defection_cost() const;  // c_so

  /// Which tasks the given role performs (Table II row set).
  static bool role_performs(consensus::Role role, std::string_view task);

 private:
  CostModel(TaskCosts tasks, bool direct, double cl, double cm, double ck,
            double cso);

  TaskCosts tasks_;
  bool direct_ = false;
  double direct_cl_ = 0, direct_cm_ = 0, direct_ck_ = 0, direct_cso_ = 0;
};

/// Table II task identifiers, in presentation order.
inline constexpr std::array<std::string_view, 9> kTaskNames = {
    "transaction_verification", "seed_generation", "sortition",
    "verify_sortition_proof",   "block_proposition", "gossiping",
    "block_selection",          "vote",              "vote_counting"};

}  // namespace roleshare::econ
