#include "econ/cost_model.hpp"

#include "util/require.hpp"

namespace roleshare::econ {

void TaskCosts::validate() const {
  for (const double c : {cve, cse, cso, cvs, cbl, cgo, cbs, cvo, cvc})
    RS_REQUIRE(c >= 0.0, "task costs must be non-negative");
}

CostModel::CostModel(TaskCosts tasks) : tasks_(tasks) { tasks.validate(); }

double CostModel::fixed_cost() const {
  return tasks_.cve + tasks_.cse + tasks_.cso + tasks_.cgo + tasks_.cvs +
         tasks_.cvc;
}

double CostModel::cooperation_cost(consensus::Role role) const {
  switch (role) {
    case consensus::Role::Leader:
      return leader_cost();
    case consensus::Role::Committee:
      return committee_cost();
    case consensus::Role::Other:
      return other_cost();
  }
  RS_ENSURE(false, "unknown role");
}

double CostModel::leader_cost() const { return fixed_cost() + tasks_.cbl; }

double CostModel::committee_cost() const {
  return fixed_cost() + tasks_.cbs + tasks_.cvo;
}

double CostModel::other_cost() const { return fixed_cost(); }

double CostModel::defection_cost() const { return tasks_.cso; }

bool CostModel::role_performs(consensus::Role role, std::string_view task) {
  // Table II: leaders do everything except block selection and voting;
  // committee members do everything except block proposition; others do
  // only the fixed-cost tasks.
  const bool fixed = task == "transaction_verification" ||
                     task == "seed_generation" || task == "sortition" ||
                     task == "verify_sortition_proof" || task == "gossiping" ||
                     task == "vote_counting";
  switch (role) {
    case consensus::Role::Leader:
      return fixed || task == "block_proposition";
    case consensus::Role::Committee:
      return fixed || task == "block_selection" || task == "vote";
    case consensus::Role::Other:
      return fixed;
  }
  return false;
}

}  // namespace roleshare::econ
