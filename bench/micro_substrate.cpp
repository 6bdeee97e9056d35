// E9 — substrate microbenchmarks (google-benchmark): the primitives whose
// throughput bounds experiment wall-clock — SHA-256, VRF+sortition, gossip
// propagation, vote tallying, and a full simulated consensus round — plus
// head-to-heads for the portable vs CPUID-selected SHA-256 compression
// and for the fixed-template hashing and batch sortition paths the round
// engine's hot loop uses. Each fast-path bench self-checks its digests
// against the reference path at setup: it must be bit-identical, not
// just fast.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "consensus/votes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sortition.hpp"
#include "net/gossip.hpp"
#include "sim/round_engine.hpp"

using namespace roleshare;

namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_Sha256_1KiB);

// -- Portable vs selected compression --------------------------------------
//
// One 64-byte block per iteration through sha256_compress_portable and
// through sha256_compress (whatever CPUID selected; the label names it).
// Each iteration feeds the state back into the block so the calls chain.

/// 256 distinct blocks, checked at setup: the selected compression must
/// produce the portable states bit for bit, or the bench aborts.
std::vector<std::array<std::uint8_t, 64>> make_checked_blocks() {
  std::vector<std::array<std::uint8_t, 64>> blocks(256);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const crypto::Digest lo = crypto::sha256("block-lo" + std::to_string(i));
    const crypto::Digest hi = crypto::sha256("block-hi" + std::to_string(i));
    std::copy(lo.begin(), lo.end(), blocks[i].begin());
    std::copy(hi.begin(), hi.end(), blocks[i].begin() + 32);
  }
  std::array<std::uint32_t, 8> selected = crypto::sha256_initial_state();
  std::array<std::uint32_t, 8> portable = selected;
  for (const auto& block : blocks) {
    crypto::sha256_compress(selected, block.data());
    crypto::sha256_compress_portable(portable, block.data());
    if (selected != portable) {
      std::fprintf(stderr, "FATAL: sha256_compress (%s) != portable\n",
                   std::string(crypto::sha256_implementation()).c_str());
      std::abort();
    }
  }
  return blocks;
}

template <void (*Compress)(std::array<std::uint32_t, 8>&,
                           const std::uint8_t*)>
void compress_loop(benchmark::State& state) {
  auto blocks = make_checked_blocks();
  std::array<std::uint32_t, 8> words = crypto::sha256_initial_state();
  std::size_t i = 0;
  for (auto _ : state) {
    auto& block = blocks[i++ & 255];
    Compress(words, block.data());
    block[0] = static_cast<std::uint8_t>(words[0]);
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}

void BM_Sha256Compress_Portable(benchmark::State& state) {
  compress_loop<&crypto::sha256_compress_portable>(state);
  state.SetLabel("portable");
}
BENCHMARK(BM_Sha256Compress_Portable);

void BM_Sha256Compress_Selected(benchmark::State& state) {
  compress_loop<&crypto::sha256_compress>(state);
  state.SetLabel(std::string(crypto::sha256_implementation()));
}
BENCHMARK(BM_Sha256Compress_Selected);

void BM_VrfEvaluate(benchmark::State& state) {
  const crypto::KeyPair key = crypto::KeyPair::derive(1, 1);
  const crypto::VrfInput input{7, 3, crypto::HashBuilder("b").build()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::vrf_evaluate(key, input));
  }
}
BENCHMARK(BM_VrfEvaluate);

void BM_Sortition(benchmark::State& state) {
  const crypto::KeyPair key = crypto::KeyPair::derive(1, 1);
  const crypto::SortitionParams params{
      1000, static_cast<std::int64_t>(state.range(0))};
  std::uint64_t round = 0;
  for (auto _ : state) {
    const crypto::VrfInput input{++round, 1, crypto::Hash256::zero()};
    benchmark::DoNotOptimize(
        crypto::sortition(key, input, state.range(0) / 100, params));
  }
}
BENCHMARK(BM_Sortition)->Arg(10'000)->Arg(1'000'000);

// -- Batched vs scalar head-to-heads ---------------------------------------
//
// The round engine hashes many same-shape messages per step (one sign +
// one output hash per node). The scalar path streams each message through
// HashBuilder; the fixed path seals the layout into a Sha256Fixed
// template once and only rewrites the 32-byte variable slot per item.

/// 256 cycling slot values so the per-iteration work is just the hash
/// under test, not input generation.
std::vector<crypto::Hash256> make_slot_values() {
  std::vector<crypto::Hash256> values;
  for (std::uint64_t i = 0; i < 256; ++i)
    values.push_back(crypto::HashBuilder("slot").add_u64(i).build());
  return values;
}

void BM_HashSigLayout_Scalar(benchmark::State& state) {
  const std::vector<crypto::Hash256> slots = make_slot_values();
  const crypto::Hash256 msg = crypto::HashBuilder("m").build();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HashBuilder("roleshare.sig")
                                 .add(slots[i++ & 255])
                                 .add(msg)
                                 .build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashSigLayout_Scalar);

void BM_HashSigLayout_FixedTemplate(benchmark::State& state) {
  const std::vector<crypto::Hash256> slots = make_slot_values();
  const crypto::Hash256 msg = crypto::HashBuilder("m").build();
  crypto::FixedHasher layout("roleshare.sig");
  const std::size_t slot = layout.add_hash_slot();
  layout.add(msg);
  crypto::Sha256Fixed fixed = layout.build_template();

  // Digest self-check: the template must reproduce the streaming layout
  // bit for bit for every probe value.
  for (const crypto::Hash256& probe : slots) {
    crypto::write_hash_slot(fixed, slot, probe);
    const crypto::Hash256 expected =
        crypto::HashBuilder("roleshare.sig").add(probe).add(msg).build();
    if (crypto::Hash256(fixed.digest()) != expected) {
      std::fprintf(stderr, "FATAL: Sha256Fixed digest != HashBuilder\n");
      std::abort();
    }
  }

  std::size_t i = 0;
  for (auto _ : state) {
    crypto::write_hash_slot(fixed, slot, slots[i++ & 255]);
    benchmark::DoNotOptimize(fixed.digest());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashSigLayout_FixedTemplate);

/// Shared fixture for the sortition head-to-head: one committee draw over
/// `n` nodes with skewed stakes.
struct SortitionBatchSetup {
  std::vector<crypto::KeyPair> keys;
  std::vector<std::int64_t> stakes;
  crypto::SortitionParams params;
  crypto::VrfInput input{9, 2, crypto::Hash256::zero()};

  explicit SortitionBatchSetup(std::size_t n) {
    std::int64_t total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      keys.push_back(crypto::KeyPair::derive(3, i));
      stakes.push_back(1 + static_cast<std::int64_t>(i % 50));
      total += stakes.back();
    }
    params = crypto::SortitionParams{40, total};
    input.prev_seed = crypto::HashBuilder("s").build();
  }
};

void BM_SortitionCommittee_Scalar(benchmark::State& state) {
  const SortitionBatchSetup setup(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (std::size_t i = 0; i < setup.keys.size(); ++i) {
      benchmark::DoNotOptimize(crypto::sortition(
          setup.keys[i], setup.input, setup.stakes[i], setup.params));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SortitionCommittee_Scalar)->Arg(512)->Arg(4096);

void BM_SortitionCommittee_Batched(benchmark::State& state) {
  const SortitionBatchSetup setup(static_cast<std::size_t>(state.range(0)));
  // The round engine builds its signer table once; so does this fixture.
  const crypto::SignerTable signers(setup.keys);
  std::vector<crypto::SortitionResult> results;

  // Self-check: the table path must match per-node sortition() exactly.
  crypto::sortition_batch_into(signers, setup.input, setup.stakes,
                               setup.params, results);
  for (std::size_t i = 0; i < setup.keys.size(); ++i) {
    const crypto::SortitionResult scalar = crypto::sortition(
        setup.keys[i], setup.input, setup.stakes[i], setup.params);
    if (results[i].sub_users != scalar.sub_users ||
        results[i].vrf.output != scalar.vrf.output ||
        results[i].vrf.proof != scalar.vrf.proof) {
      std::fprintf(stderr, "FATAL: sortition_batch_into != sortition\n");
      std::abort();
    }
  }

  for (auto _ : state) {
    crypto::sortition_batch_into(signers, setup.input, setup.stakes,
                                 setup.params, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SortitionCommittee_Batched)->Arg(512)->Arg(4096);

void BM_GossipPropagate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng trng(5);
  const net::Topology topo = net::Topology::random_k_out(n, 5, trng);
  const net::UniformDelay delay(20, 120);
  const net::GossipEngine engine(topo, delay);
  const net::RelaySet relay = net::RelaySet::all_cooperative(n);
  util::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.propagate(0, 0.0, relay, rng));
  }
}
BENCHMARK(BM_GossipPropagate)->Arg(300)->Arg(1000);

void BM_VoteTally(benchmark::State& state) {
  // Pre-build verified votes once; measure counter throughput.
  const crypto::Hash256 seed = crypto::HashBuilder("t").build();
  const crypto::SortitionParams params{5000, 10'000};
  const crypto::Hash256 value = crypto::HashBuilder("v").build();
  std::vector<consensus::Vote> votes;
  std::uint64_t id = 0;
  while (votes.size() < 64) {
    const crypto::KeyPair key = crypto::KeyPair::derive(2, id++);
    const crypto::VrfInput input{1, 1, seed};
    const auto res = crypto::sortition(key, input, 100, params);
    if (res.selected()) {
      votes.push_back(consensus::make_vote(
          static_cast<ledger::NodeId>(id), key.public_key(), 1, 1, value,
          res));
    }
  }
  for (auto _ : state) {
    consensus::VoteCounter counter(100.0);
    for (const auto& v : votes) counter.add(v);
    benchmark::DoNotOptimize(counter.result());
  }
}
BENCHMARK(BM_VoteTally);

void BM_FullConsensusRound(benchmark::State& state) {
  sim::NetworkConfig config;
  config.node_count = static_cast<std::size_t>(state.range(0));
  config.seed = 17;
  sim::Network net(config);
  sim::RoundEngine engine(net, consensus::ConsensusParams::scaled_for(
                                   net.accounts().total_stake()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_round());
  }
}
BENCHMARK(BM_FullConsensusRound)->Arg(100)->Arg(300)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
