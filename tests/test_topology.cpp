#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"

namespace roleshare::net {
namespace {

TEST(Topology, KOutDegreesAndNoSelfLoops) {
  util::Rng rng(1);
  const Topology t = Topology::random_k_out(50, 5, rng);
  EXPECT_EQ(t.node_count(), 50u);
  EXPECT_EQ(t.fan_out(), 5u);
  for (ledger::NodeId v = 0; v < 50; ++v) {
    const auto out = t.out_neighbors(v);
    EXPECT_EQ(out.size(), 5u);
    std::set<ledger::NodeId> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), 5u) << "duplicate edge at node " << v;
    EXPECT_FALSE(unique.contains(v)) << "self loop at node " << v;
    for (const auto to : out) EXPECT_LT(to, 50u);
  }
}

TEST(Topology, ReverseAdjacencyIsConsistent) {
  util::Rng rng(2);
  const Topology t = Topology::random_k_out(30, 4, rng);
  // v in in_neighbors(w)  <=>  w in out_neighbors(v)
  std::size_t forward_edges = 0, reverse_edges = 0;
  for (ledger::NodeId v = 0; v < 30; ++v) {
    forward_edges += t.out_neighbors(v).size();
    reverse_edges += t.in_neighbors(v).size();
    for (const auto w : t.out_neighbors(v)) {
      const auto in = t.in_neighbors(w);
      EXPECT_NE(std::find(in.begin(), in.end(), v), in.end());
    }
  }
  EXPECT_EQ(forward_edges, reverse_edges);
}

TEST(Topology, DeterministicForSameSeed) {
  util::Rng rng1(3), rng2(3);
  const Topology a = Topology::random_k_out(20, 3, rng1);
  const Topology b = Topology::random_k_out(20, 3, rng2);
  for (ledger::NodeId v = 0; v < 20; ++v) {
    const auto oa = a.out_neighbors(v);
    const auto ob = b.out_neighbors(v);
    EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()));
  }
}

TEST(Topology, RejectsFanOutTooLarge) {
  util::Rng rng(4);
  EXPECT_THROW(Topology::random_k_out(5, 5, rng), std::invalid_argument);
  EXPECT_THROW(Topology::random_k_out(0, 0, rng), std::invalid_argument);
}

TEST(Topology, FromAdjacencyPreservesEdges) {
  const Topology t = Topology::from_adjacency({{1, 2}, {2}, {0}});
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.out_neighbors(0).size(), 2u);
  EXPECT_EQ(t.out_neighbors(1).size(), 1u);
  EXPECT_EQ(t.in_neighbors(2).size(), 2u);
}

TEST(Topology, FromAdjacencyRejectsOutOfRange) {
  EXPECT_THROW(Topology::from_adjacency({{5}}), std::invalid_argument);
}

TEST(Topology, NodeIdBoundsChecked) {
  const Topology t = Topology::from_adjacency({{1}, {0}});
  EXPECT_THROW(t.out_neighbors(2), std::invalid_argument);
  EXPECT_THROW(t.in_neighbors(9), std::invalid_argument);
}

// SHA-256 over every out-row, then every in-row, in node order; each row
// is its length followed by its node ids.
std::string adjacency_digest(const Topology& t) {
  crypto::Sha256 sha;
  const auto add_rows = [&](auto rows_of) {
    for (ledger::NodeId v = 0; v < t.node_count(); ++v) {
      const std::span<const ledger::NodeId> row = rows_of(v);
      sha.update_u64(row.size());
      for (const ledger::NodeId u : row) sha.update_u64(u);
    }
  };
  add_rows([&](ledger::NodeId v) { return t.out_neighbors(v); });
  add_rows([&](ledger::NodeId v) { return t.in_neighbors(v); });
  return crypto::Hash256(sha.finalize()).to_hex();
}

TEST(Topology, KOutAdjacencyIsPinned) {
  // Every node-major row of random_k_out. A change of storage layout
  // must keep the draw sequence, the sorted out-rows and the in-rows in
  // ascending source order.
  struct Case {
    std::size_t n, k;
    std::uint64_t seed;
    const char* digest;
  };
  const Case cases[] = {
      {6, 5, 1,
       "7fc941d4fb1ec6a0b65005ac45152ac028b8ba867f6e3c0af4de515c7e4a04df"},
      {1000, 5, 7,
       "628b19623a1edd1e03fa03ac43c3280ddf8ffa1ecbcc21285432689b5c96cd4e"},
      {100000, 5, 11,
       "0fd555c8a8154daccec4cb3721f3d48b913282a25f845a7364490bcd05d10ae7"},
  };
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    const Topology t = Topology::random_k_out(c.n, c.k, rng);
    EXPECT_EQ(adjacency_digest(t), c.digest)
        << "n=" << c.n << " k=" << c.k << " seed=" << c.seed;
  }
}

}  // namespace
}  // namespace roleshare::net
