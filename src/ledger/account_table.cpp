#include "ledger/account_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/require.hpp"

namespace roleshare::ledger {

namespace {

constexpr NodeId kEmptySlot = std::numeric_limits<NodeId>::max();
constexpr std::size_t kMinSlots = 16;

}  // namespace

NodeId AccountTable::add_account(const crypto::PublicKey& key,
                                 MicroAlgos balance) {
  RS_REQUIRE(balance >= 0, "starting balance must be non-negative");
  RS_REQUIRE(accounts_.size() < kEmptySlot, "too many accounts for NodeId");
  if (2 * (accounts_.size() + 1) > slots_.size())
    rehash(std::max(kMinSlots, 2 * slots_.size()));
  const std::size_t slot = probe(key.value);
  RS_REQUIRE(slots_[slot] == kEmptySlot, "duplicate account key");
  const auto id = static_cast<NodeId>(accounts_.size());
  accounts_.push_back(Account{id, key, balance});
  slots_[slot] = id;
  return id;
}

const Account& AccountTable::account(NodeId id) const {
  RS_REQUIRE(id < accounts_.size(), "unknown account id");
  return accounts_[id];
}

std::optional<NodeId> AccountTable::find(const crypto::PublicKey& key) const {
  if (slots_.empty()) return std::nullopt;
  const NodeId id = slots_[probe(key.value)];
  if (id == kEmptySlot) return std::nullopt;
  return id;
}

std::size_t AccountTable::probe(const crypto::Hash256& key) const {
  // Fibonacci hashing: the product's top bits pick the first slot, so
  // every prefix bit counts. At most half the slots are used, so every
  // probe reaches an empty slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (key.prefix_u64() * 0x9E3779B97F4A7C15ULL) >>
      (64 - std::countr_zero(slots_.size())));
  while (slots_[i] != kEmptySlot && accounts_[slots_[i]].key.value != key)
    i = (i + 1) & mask;
  return i;
}

void AccountTable::rehash(std::size_t slot_count) {
  slots_.assign(slot_count, kEmptySlot);
  for (const Account& a : accounts_) slots_[probe(a.key.value)] = a.id;
}

std::int64_t AccountTable::total_stake() const {
  std::int64_t total = 0;
  for (const Account& a : accounts_) total += a.stake_algos();
  return total;
}

std::vector<std::int64_t> AccountTable::stakes() const {
  std::vector<std::int64_t> out;
  stakes_into(out);
  return out;
}

void AccountTable::stakes_into(std::vector<std::int64_t>& out) const {
  out.clear();
  out.reserve(accounts_.size());
  for (const Account& a : accounts_) out.push_back(a.stake_algos());
}

void AccountTable::credit(NodeId id, MicroAlgos amount) {
  RS_REQUIRE(amount >= 0, "credit must be non-negative");
  RS_REQUIRE(id < accounts_.size(), "unknown account id");
  accounts_[id].balance += amount;
}

bool AccountTable::validate(const Transaction& txn) const {
  if (!txn.verify_signature()) return false;
  const auto from = find(txn.sender());
  const auto to = find(txn.receiver());
  if (!from || !to) return false;
  if (*from == *to) return false;
  return accounts_[*from].balance >= txn.amount() + txn.fee();
}

bool AccountTable::apply(const Transaction& txn) {
  if (!validate(txn)) return false;
  const NodeId from = *find(txn.sender());
  const NodeId to = *find(txn.receiver());
  accounts_[from].balance -= txn.amount() + txn.fee();
  accounts_[to].balance += txn.amount();
  return true;
}

}  // namespace roleshare::ledger
