#include "net/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace roleshare::net {

namespace {

std::span<const ledger::NodeId> csr_row(
    const std::vector<std::size_t>& offsets,
    const std::vector<ledger::NodeId>& entries, ledger::NodeId v) {
  RS_REQUIRE(v < offsets.size() - 1, "node id out of range");
  return std::span(entries).subspan(offsets[v], offsets[v + 1] - offsets[v]);
}

}  // namespace

Topology Topology::random_k_out(std::size_t n, std::size_t k,
                                util::Rng& rng) {
  RS_REQUIRE(n > 0, "topology needs nodes");
  RS_REQUIRE(k < n, "fan-out must be smaller than node count");
  Topology t;
  t.fan_out_ = k;
  t.out_offsets_.resize(n + 1);
  for (std::size_t v = 0; v <= n; ++v) t.out_offsets_[v] = v * k;
  t.out_targets_.resize(n * k);
  // Per node: k distinct targets != v, sampled from n-1 logical slots
  // with indices >= v shifted by one. The draw sequence and picks are
  // exactly Rng::sample_without_replacement(n-1, k)'s partial
  // Fisher–Yates, but only the swapped slots are materialized: at most k
  // (slot, value) records per node, newest last, so the build needs no
  // n-sized scratch and stays O(n·k²) for the paper's fan-out of 5.
  std::vector<std::pair<std::size_t, std::size_t>> swapped;
  swapped.reserve(k);
  const auto value_at = [&](std::size_t p) {
    for (auto s = swapped.rbegin(); s != swapped.rend(); ++s)
      if (s->first == p) return s->second;
    return p;
  };
  for (std::size_t v = 0; v < n; ++v) {
    swapped.clear();
    const auto row = std::span(t.out_targets_).subspan(v * k, k);
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(n) - 2));
      const std::size_t pick = value_at(j);
      // swap(idx[i], idx[j]): position i is never read again (future
      // swap targets are > i), so only idx[j] needs recording.
      swapped.emplace_back(j, value_at(i));
      const std::size_t target = (pick >= v) ? pick + 1 : pick;
      row[i] = static_cast<ledger::NodeId>(target);
    }
    std::sort(row.begin(), row.end());
  }
  t.build_reverse();
  return t;
}

Topology Topology::from_adjacency(
    std::vector<std::vector<ledger::NodeId>> adjacency) {
  Topology t;
  const std::size_t n = adjacency.size();
  t.out_offsets_.reserve(n + 1);
  for (const auto& row : adjacency) {
    t.fan_out_ = std::max(t.fan_out_, row.size());
    for (const ledger::NodeId to : row)
      RS_REQUIRE(to < n, "adjacency target out of range");
    t.out_targets_.insert(t.out_targets_.end(), row.begin(), row.end());
    t.out_offsets_.push_back(t.out_targets_.size());
  }
  t.build_reverse();
  return t;
}

std::span<const ledger::NodeId> Topology::out_neighbors(
    ledger::NodeId v) const {
  return csr_row(out_offsets_, out_targets_, v);
}

std::span<const ledger::NodeId> Topology::in_neighbors(
    ledger::NodeId v) const {
  return csr_row(in_offsets_, in_sources_, v);
}

void Topology::build_reverse() {
  // Counting sort of the edges by target. in_offsets_[w + 1] first counts
  // w's in-edges; the prefix sum turns in_offsets_[w] into the start of
  // w's in-row, which the scatter (sources in ascending order) advances
  // to the row's end, so one shift right restores the starts.
  const std::size_t n = node_count();
  in_offsets_.assign(n + 1, 0);
  for (const ledger::NodeId to : out_targets_)
    ++in_offsets_[std::size_t{to} + 1];
  for (std::size_t w = 0; w < n; ++w) in_offsets_[w + 1] += in_offsets_[w];
  in_sources_.resize(out_targets_.size());
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t e = out_offsets_[v]; e < out_offsets_[v + 1]; ++e)
      in_sources_[in_offsets_[out_targets_[e]]++] =
          static_cast<ledger::NodeId>(v);
  std::copy_backward(in_offsets_.begin(), in_offsets_.end() - 1,
                     in_offsets_.end());
  in_offsets_[0] = 0;
}

}  // namespace roleshare::net
