#include "ledger/account_table.hpp"

#include <limits>

#include "util/require.hpp"

namespace roleshare::ledger {

NodeId AccountTable::add_account(MicroAlgos balance) {
  RS_REQUIRE(balance >= 0, "starting balance must be non-negative");
  RS_REQUIRE(balances_.size() <= std::numeric_limits<NodeId>::max(),
             "too many accounts for NodeId");
  const auto id = static_cast<NodeId>(balances_.size());
  balances_.push_back(balance);
  return id;
}

MicroAlgos AccountTable::balance(NodeId id) const {
  RS_REQUIRE(id < balances_.size(), "unknown account id");
  return balances_[id];
}

std::int64_t AccountTable::total_stake() const {
  std::int64_t total = 0;
  for (const MicroAlgos b : balances_) total += b / kMicroPerAlgo;
  return total;
}

std::vector<std::int64_t> AccountTable::stakes() const {
  std::vector<std::int64_t> out;
  stakes_into(out);
  return out;
}

void AccountTable::stakes_into(std::vector<std::int64_t>& out) const {
  out.clear();
  out.reserve(balances_.size());
  for (const MicroAlgos b : balances_) out.push_back(b / kMicroPerAlgo);
}

void AccountTable::credit(NodeId id, MicroAlgos amount) {
  RS_REQUIRE(amount >= 0, "credit must be non-negative");
  RS_REQUIRE(id < balances_.size(), "unknown account id");
  balances_[id] += amount;
}

}  // namespace roleshare::ledger
