// P1 — single-run round-engine latency: the within-run parallelism bench.
//
// Unlike the figure benches (many runs fanned out with --threads), this
// measures what the inner executor buys on ONE run at paper-scale node
// counts: the same network simulated for --rounds rounds, once with the
// per-node loops serial (inner-threads=1) and once across the inner pool
// (--inner-threads, default 0 = all hardware threads). The two passes must
// produce bit-identical per-round results — the determinism contract —
// and the JSON records both wall times plus the speedup for the perf
// trajectory. On a 4+-core machine at >=100k nodes the expected speedup
// is >1.5x (sortition VRFs, vote verification, per-node tallies and the
// gossip fan-out all scale; the serial remainder is the committee scan and
// chain append).
//
// The serial pass runs on a reused RoundWorkspace with the global
// allocation counter bracketing each round, so the JSON also tracks heap
// allocations per steady-state round — the reusable-workspace contract's
// regression gate, which --self-check enforces — plus the workspace's
// resident capacity and the gossip split: propagations the reachability
// certificate decided, propagations that ran Dijkstra, and reach classes
// built (DESIGN.md §5).
//
// --sparse=1 switches to the CommitteeModel::Sampled comparison
// (DESIGN.md §10): the sparse O(committee · log N) path vs the dense
// Sampled evaluation of the same rounds, both compounding role rewards
// into stake every round so the stake index absorbs real deltas. It
// reports the sparse pass's allocations per round (gated by --self-check
// against the sparse-touch contract: nothing beyond the chain append),
// the dense reference's steady allocations per round, the sparse
// workspace + context bytes, and per-node peak RSS; --sparse --sweep runs
// the 100k/1M ladder whose ms/round ratio is the sublinearity evidence.
//
//   $ ./round_latency --nodes=100000 --rounds=3 --inner-threads=0
//   $ ./round_latency --sweep=1 --rounds=3        # 1000/3000/10000 nodes
//   $ ./round_latency --nodes=3000 --self-check=1 # CI identity+alloc gate
//   $ ./round_latency --sparse=1 --sweep=1        # 100k/1M sparse ladder
//   $ ./round_latency --sparse=1 --nodes=3000 --self-check=1  # alloc gate
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "sim/aggregators.hpp"
#include "sim/longhorizon.hpp"
#include "sim/round_engine.hpp"
#include "util/thread_pool.hpp"

using namespace roleshare;

namespace {

/// What every pass measures: the heap allocations inside each round call
/// and the wall time of the whole pass.
struct PassTiming {
  std::vector<std::uint64_t> allocs_per_round;
  double wall_ms = 0.0;

  double ms_per_round() const {
    return allocs_per_round.empty()
               ? 0.0
               : wall_ms / static_cast<double>(allocs_per_round.size());
  }
  /// Steady-state allocations: the minimum over rounds after the first
  /// (the first round grows every buffer to its high-water mark).
  std::uint64_t steady_allocs() const {
    if (allocs_per_round.empty()) return 0;
    std::uint64_t best = allocs_per_round.back();
    for (std::size_t r = 1; r < allocs_per_round.size(); ++r)
      best = std::min(best, allocs_per_round[r]);
    return best;
  }
};

struct PassResult : PassTiming {
  std::vector<double> final_fractions;
  std::vector<double> none_fractions;
  /// Full per-node outcome vectors and proposal counts, kept so the
  /// determinism gate compares the complete round result, not just the
  /// derived fractions.
  std::vector<std::vector<sim::NodeOutcome>> outcomes;
  std::vector<std::size_t> proposals;
  /// Bytes reserved across the workspace's buffers after the last round.
  std::size_t workspace_bytes = 0;
  /// Gossip counts summed over the pass's rounds.
  sim::GossipCounts gossip;

  double rounds_per_sec() const {
    return wall_ms > 0.0 ? 1000.0 *
                               static_cast<double>(allocs_per_round.size()) /
                               wall_ms
                         : 0.0;
  }
};

PassResult run_pass(std::size_t nodes, std::size_t rounds,
                    std::uint64_t seed, double defection_rate,
                    std::size_t inner_threads) {
  sim::NetworkConfig config;
  config.node_count = nodes;
  config.seed = seed;
  config.defection_rate = defection_rate;
  sim::Network net(config);

  const std::size_t workers =
      util::ThreadPool::resolve_thread_count(inner_threads);
  std::optional<util::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  sim::RoundEngine engine(net,
                          consensus::ConsensusParams::scaled_for(
                              net.accounts().total_stake()),
                          pool ? &*pool : nullptr);

  PassResult pass;
  sim::RoundWorkspace ws;
  sim::RoundResult result;
  const bench::WallTimer timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t allocs_before = bench::alloc_count();
    engine.run_round_into(result, ws);
    pass.allocs_per_round.push_back(bench::alloc_count() - allocs_before);
    pass.final_fractions.push_back(result.final_fraction);
    pass.none_fractions.push_back(result.none_fraction);
    pass.outcomes.push_back(result.outcomes);
    pass.proposals.push_back(result.proposals);
    pass.gossip.certified += ws.gossip_counts.certified;
    pass.gossip.exact += ws.gossip_counts.exact;
    pass.gossip.classes += ws.gossip_counts.classes;
  }
  pass.wall_ms = timer.elapsed_ms();
  pass.workspace_bytes = ws.capacity_bytes();
  return pass;
}

/// The determinism gate: the parallel pass must reproduce the serial pass
/// bit for bit — per-node outcomes and proposal counts included, not just
/// the derived fractions — or the speedup is meaningless.
bool passes_identical(const PassResult& serial, const PassResult& parallel) {
  return serial.final_fractions == parallel.final_fractions &&
         serial.none_fractions == parallel.none_fractions &&
         serial.proposals == parallel.proposals &&
         serial.outcomes == parallel.outcomes;
}

struct Measurement {
  PassResult serial;
  PassResult parallel;
  bool identical = false;
  double speedup = 0.0;
};

/// One serial + parallel measurement at a node count; appends the fields
/// under `prefix` to the BENCH JSON.
Measurement measure_size(std::size_t nodes, std::size_t rounds,
                         std::uint64_t seed, std::size_t inner_threads,
                         std::size_t workers, const std::string& prefix,
                         bench::JsonFields& fields) {
  Measurement m;
  std::printf("\nserial pass (%zu nodes, inner-threads=1)...\n", nodes);
  m.serial = run_pass(nodes, rounds, seed, 0.05, 1);
  std::printf("  wall: %.0f ms (%.1f ms/round, %.2f rounds/s)\n",
              m.serial.wall_ms, m.serial.ms_per_round(),
              m.serial.rounds_per_sec());
  std::printf("  allocations/round: first %llu, steady %llu | "
              "workspace %.1f KiB\n",
              static_cast<unsigned long long>(
                  m.serial.allocs_per_round.front()),
              static_cast<unsigned long long>(m.serial.steady_allocs()),
              static_cast<double>(m.serial.workspace_bytes) / 1024.0);
  std::printf("  gossip: %zu certified + %zu exact propagations, "
              "%zu reach classes\n",
              m.serial.gossip.certified, m.serial.gossip.exact,
              m.serial.gossip.classes);

  std::printf("parallel pass (%zu workers)...\n", workers);
  m.parallel = run_pass(nodes, rounds, seed, 0.05, inner_threads);
  std::printf("  wall: %.0f ms (%.1f ms/round, %.2f rounds/s)\n",
              m.parallel.wall_ms, m.parallel.ms_per_round(),
              m.parallel.rounds_per_sec());

  m.identical = passes_identical(m.serial, m.parallel);
  m.speedup = m.parallel.wall_ms > 0.0
                  ? m.serial.wall_ms / m.parallel.wall_ms
                  : 0.0;
  std::printf("bit-identical results: %s | speedup: %.2fx\n",
              m.identical ? "yes" : "NO — BUG", m.speedup);

  fields.emplace_back(prefix + "wall_ms_serial", m.serial.wall_ms);
  fields.emplace_back(prefix + "wall_ms_parallel", m.parallel.wall_ms);
  fields.emplace_back(prefix + "ms_per_round_serial",
                      m.serial.ms_per_round());
  fields.emplace_back(prefix + "rounds_per_sec_serial",
                      m.serial.rounds_per_sec());
  fields.emplace_back(prefix + "rounds_per_sec_parallel",
                      m.parallel.rounds_per_sec());
  fields.emplace_back(prefix + "speedup", m.speedup);
  fields.emplace_back(prefix + "allocs_per_round_first",
                      m.serial.allocs_per_round.front());
  fields.emplace_back(prefix + "allocs_per_round_steady",
                      m.serial.steady_allocs());
  fields.emplace_back(prefix + "workspace_bytes", m.serial.workspace_bytes);
  fields.emplace_back(prefix + "certified_propagations",
                      m.serial.gossip.certified);
  fields.emplace_back(prefix + "exact_propagations", m.serial.gossip.exact);
  fields.emplace_back(prefix + "reach_classes", m.serial.gossip.classes);
  fields.emplace_back(prefix + "bit_identical",
                      m.identical ? "yes" : "no");
  return m;
}

// ---- Sampled-model comparison (--sparse) --------------------------------

/// The steady-state allocation contract of both round paths (DESIGN.md
/// §5, §10): a steady-state round may allocate only for the chain append,
/// whose growth is amortized, so the steady count is independent of N.
/// --self-check applies the gate to the sparse pass and to the serial
/// dense pass. It leaves headroom over the measured 0–5 so stdlib
/// differences don't trip it while a per-loop, O(committee) or O(N)
/// allocation regression still does.
constexpr std::uint64_t kSteadyAllocGate = 64;

/// False, after printing the pass's steady count and the gate to stderr,
/// when `steady` allocations per round exceed the gate.
bool within_alloc_gate(const char* pass, std::uint64_t steady) {
  if (steady <= kSteadyAllocGate) return true;
  std::fprintf(stderr,
               "ERROR: %s steady-state allocations regressed: %llu/round "
               "> gate %llu (contract: chain append only)\n",
               pass, static_cast<unsigned long long>(steady),
               static_cast<unsigned long long>(kSteadyAllocGate));
  return false;
}

/// One pass over the Sampled round model, dense or sparse evaluation,
/// with the fixed-split role payouts compounded into stake every round —
/// the long-horizon workload, so the sparse pass exercises the O(log N)
/// stake-index deltas and not just static elections.
struct SparsePassResult : PassTiming {
  std::vector<double> final_fractions;
  std::vector<std::size_t> proposals;
  std::size_t workspace_bytes = 0;
  /// Mean touched-set size (sparse pass only): the committee-neighborhood
  /// node count a round actually visits.
  double touched_mean = 0.0;
  crypto::Hash256 tip{};
};

sim::Network make_sampled_net(std::size_t nodes, std::uint64_t seed,
                              double defection_rate) {
  sim::NetworkConfig config;
  config.node_count = nodes;
  config.seed = seed;
  config.defection_rate = defection_rate;
  return sim::Network(config);
}

consensus::ConsensusParams sampled_params(const sim::Network& net) {
  consensus::ConsensusParams params =
      consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
  params.committee_model = consensus::CommitteeModel::Sampled;
  return params;
}

/// The long-horizon default split (α = β = 0.30) both passes compound
/// with, so they credit the same µAlgos and stay bit-identical.
econ::RewardSplit payout_split() {
  const sim::LongHorizonConfig defaults;
  return econ::RewardSplit(defaults.alpha, defaults.beta);
}

/// The sparse evaluation: one O(N) context build, then every round is
/// O(committee · log N) — elections off the incremental stake index,
/// payout deltas folded back via refresh_node. The allocation counter
/// brackets run_round_sparse_into only; the payout loop reuses its
/// buffers and allocates nothing once warm.
SparsePassResult run_sparse_pass(std::size_t nodes, std::size_t rounds,
                                 std::uint64_t seed, double defection_rate) {
  sim::Network net = make_sampled_net(nodes, seed, defection_rate);
  sim::RoundEngine engine(net, sampled_params(net));

  sim::SparseRoundContext ctx;
  ctx.init_from(net);
  sim::SparseRoundWorkspace ws;
  sim::SparseRoundResult sparse;

  const econ::RewardSplit split = payout_split();
  std::vector<consensus::Role> roles;
  std::vector<std::int64_t> stakes;
  std::vector<ledger::MicroAlgos> amounts;

  SparsePassResult pass;
  std::size_t touched_total = 0;
  const bench::WallTimer timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t allocs_before = bench::alloc_count();
    engine.run_round_sparse_into(sparse, ctx, ws);
    pass.allocs_per_round.push_back(bench::alloc_count() - allocs_before);
    pass.final_fractions.push_back(sparse.final_fraction);
    pass.proposals.push_back(sparse.proposals);
    touched_total += sparse.touched.size();
    sim::credit_role_payouts(
        net.accounts(), split, sparse.round, sparse.touched,
        sparse.online_stake, roles, stakes, amounts,
        [&](ledger::NodeId v, std::int64_t, std::int64_t) {
          ctx.refresh_node(net, v);
        });
  }
  pass.wall_ms = timer.elapsed_ms();
  pass.workspace_bytes = ws.capacity_bytes();
  pass.touched_mean = rounds == 0 ? 0.0
                                  : static_cast<double>(touched_total) /
                                        static_cast<double>(rounds);
  pass.tip = net.chain().tip().hash();
  return pass;
}

/// The dense evaluation of the same Sampled rounds: run_round_into
/// rebuilds the stake index and materializes full per-node vectors each
/// round (O(N)), and the payout gather walks the full role snapshot. By
/// the sparse-payout contract the credited set and amounts match the
/// sparse pass exactly, so the two chains stay bit-identical.
SparsePassResult run_dense_sampled_pass(std::size_t nodes, std::size_t rounds,
                                        std::uint64_t seed,
                                        double defection_rate) {
  sim::Network net = make_sampled_net(nodes, seed, defection_rate);
  sim::RoundEngine engine(net, sampled_params(net));

  sim::RoundWorkspace ws;
  sim::RoundResult result;
  const econ::RewardSplit split = payout_split();
  std::vector<sim::SparseNodeRole> touched;
  std::vector<consensus::Role> roles;
  std::vector<std::int64_t> stakes;
  std::vector<ledger::MicroAlgos> amounts;

  SparsePassResult pass;
  const bench::WallTimer timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t allocs_before = bench::alloc_count();
    engine.run_round_into(result, ws);
    pass.allocs_per_round.push_back(bench::alloc_count() - allocs_before);
    pass.final_fractions.push_back(result.final_fraction);
    pass.proposals.push_back(result.proposals);

    // The paid set: every node the snapshot gives a role.
    const econ::RoleSnapshot& snapshot = *result.roles;
    touched.clear();
    for (std::size_t v = 0; v < snapshot.node_count(); ++v) {
      const auto id = static_cast<ledger::NodeId>(v);
      const consensus::Role role = snapshot.role(id);
      if (role != consensus::Role::Other)
        touched.push_back({id, role, role, snapshot.stake(id)});
    }
    sim::credit_role_payouts(net.accounts(), split, result.round, touched,
                             snapshot.total_stake(), roles, stakes, amounts,
                             [](ledger::NodeId, std::int64_t, std::int64_t) {});
  }
  pass.wall_ms = timer.elapsed_ms();
  pass.workspace_bytes = ws.capacity_bytes();
  pass.tip = net.chain().tip().hash();
  return pass;
}

struct SparseMeasurement {
  SparsePassResult sparse;
  SparsePassResult dense;
  bool identical = false;
  double speedup = 0.0;
};

/// One sparse + dense-reference measurement at a node count. The dense
/// pass may run fewer rounds (it is the O(N) path being amortized away);
/// identity is then checked over the common prefix and the tip hashes are
/// only compared on equal-length chains.
SparseMeasurement measure_sparse_size(std::size_t nodes,
                                      std::size_t sparse_rounds,
                                      std::size_t dense_rounds,
                                      std::uint64_t seed,
                                      const std::string& prefix,
                                      bench::JsonFields& fields) {
  SparseMeasurement m;
  std::printf("\nsparse pass (%zu nodes, %zu rounds, compounding)...\n",
              nodes, sparse_rounds);
  m.sparse = run_sparse_pass(nodes, sparse_rounds, seed, 0.05);
  std::printf("  wall: %.0f ms (%.3f ms/round) | touched/round: %.0f\n",
              m.sparse.wall_ms, m.sparse.ms_per_round(),
              m.sparse.touched_mean);
  std::printf("  allocations/round: first %llu, steady %llu | "
              "sparse workspace %.1f KiB\n",
              static_cast<unsigned long long>(
                  m.sparse.allocs_per_round.front()),
              static_cast<unsigned long long>(m.sparse.steady_allocs()),
              static_cast<double>(m.sparse.workspace_bytes) / 1024.0);

  std::printf("dense reference (%zu rounds)...\n", dense_rounds);
  m.dense = run_dense_sampled_pass(nodes, dense_rounds, seed, 0.05);
  std::printf("  wall: %.0f ms (%.2f ms/round) | allocations/round: "
              "steady %llu\n",
              m.dense.wall_ms, m.dense.ms_per_round(),
              static_cast<unsigned long long>(m.dense.steady_allocs()));

  const std::size_t common = std::min(sparse_rounds, dense_rounds);
  m.identical =
      std::equal(m.dense.final_fractions.begin(),
                 m.dense.final_fractions.begin() + common,
                 m.sparse.final_fractions.begin()) &&
      std::equal(m.dense.proposals.begin(),
                 m.dense.proposals.begin() + common,
                 m.sparse.proposals.begin()) &&
      (sparse_rounds != dense_rounds || m.sparse.tip == m.dense.tip);
  m.speedup = m.sparse.ms_per_round() > 0.0
                  ? m.dense.ms_per_round() / m.sparse.ms_per_round()
                  : 0.0;
  std::printf("sparse == dense over %zu common rounds: %s | "
              "per-round speedup: %.1fx\n",
              common, m.identical ? "yes" : "NO — BUG", m.speedup);

  const double rss = bench::peak_rss_bytes();
  fields.emplace_back(prefix + "sparse_wall_ms", m.sparse.wall_ms);
  fields.emplace_back(prefix + "sparse_ms_per_round",
                      m.sparse.ms_per_round());
  fields.emplace_back(prefix + "sparse_rounds", sparse_rounds);
  fields.emplace_back(prefix + "dense_ms_per_round", m.dense.ms_per_round());
  fields.emplace_back(prefix + "dense_rounds", dense_rounds);
  fields.emplace_back(prefix + "dense_allocs_per_round_steady",
                      m.dense.steady_allocs());
  fields.emplace_back(prefix + "sparse_speedup_vs_dense", m.speedup);
  fields.emplace_back(prefix + "sparse_allocs_per_round_first",
                      m.sparse.allocs_per_round.front());
  fields.emplace_back(prefix + "sparse_allocs_per_round_steady",
                      m.sparse.steady_allocs());
  fields.emplace_back(prefix + "sparse_workspace_bytes",
                      m.sparse.workspace_bytes);
  fields.emplace_back(prefix + "sparse_touched_mean", m.sparse.touched_mean);
  fields.emplace_back(prefix + "peak_rss_mb", rss / (1024.0 * 1024.0));
  fields.emplace_back(prefix + "rss_per_node_bytes",
                      rss / static_cast<double>(nodes));
  fields.emplace_back(prefix + "sparse_bit_identical",
                      m.identical ? "yes" : "no");
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 100'000);
  const bool sparse = bench::arg_int(argc, argv, "sparse", 0) != 0;
  const bool sweep = bench::arg_int(argc, argv, "sweep", 0) != 0;
  // Sparse rounds are sub-millisecond, so the sparse default runs many
  // more of them for a stable ms/round reading; in a combined
  // --sweep --sparse run the dense ladder keeps the short default and
  // only the sparse ladder stretches.
  const std::optional<std::size_t> rounds_arg =
      bench::arg_optional_size(argc, argv, "rounds");
  const std::size_t rounds = rounds_arg.value_or(sparse && !sweep ? 256 : 3);
  // Every report reads the first round of a pass, and an identity check
  // over no rounds compares nothing.
  if (rounds == 0)
    throw std::invalid_argument("--rounds=0: a pass needs at least one round");
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_int(argc, argv, "seed", 404));
  // Unlike the figure benches, the parallel pass defaults to all hardware
  // threads — measuring the speedup is this binary's whole point.
  const std::size_t inner_threads =
      bench::arg_size(argc, argv, "inner-threads", 0);
  const bool self_check = bench::arg_int(argc, argv, "self-check", 0) != 0;
  const std::size_t workers =
      util::ThreadPool::resolve_thread_count(inner_threads);

  bench::print_header("Round latency",
                      sparse ? "Sampled rounds, sparse vs dense evaluation"
                             : "single-run wall time, serial vs "
                               "inner-parallel");
  std::printf("nodes=%zu rounds=%zu defection=5%% inner-threads=%zu "
              "(%zu workers; override with --nodes/--rounds/"
              "--inner-threads; --sweep=1 for the node ladder; "
              "--sparse=1 for the Sampled sparse-vs-dense comparison; "
              "--self-check=1 for the CI gates)\n",
              nodes, rounds, inner_threads, workers);

  // The dense reference is the O(N) path being amortized away; a short
  // prefix is enough for a stable ms/round and the identity check.
  const std::size_t dense_rounds = bench::arg_size(
      argc, argv, "dense-rounds", std::min<std::size_t>(rounds, 8));
  if (dense_rounds == 0) {
    throw std::invalid_argument(
        "--dense-rounds=0: the sparse == dense check needs at least one "
        "dense round");
  }

  if (sparse && !sweep) {
    // Single-size sparse measurement — the CI alloc/identity gate shape:
    //   ./round_latency --sparse=1 --nodes=3000 --self-check=1
    bench::JsonFields fields{{"nodes", nodes},
                             {"rounds", rounds},
                             {"dense_rounds", dense_rounds},
                             {"sparse_alloc_gate", kSteadyAllocGate}};
    const SparseMeasurement m = measure_sparse_size(
        nodes, rounds, dense_rounds, seed, "", fields);
    bench::emit_json("round_latency_sparse", fields);

    if (!m.identical) {
      std::fprintf(stderr,
                   "ERROR: sparse results diverged from the dense "
                   "Sampled evaluation\n");
      return 1;
    }
    if (self_check && !within_alloc_gate("sparse", m.sparse.steady_allocs()))
      return 1;
    if (self_check) {
      std::printf("\nself-check OK: sparse == dense and steady-state "
                  "allocations %llu/round within the gate (%llu)\n",
                  static_cast<unsigned long long>(m.sparse.steady_allocs()),
                  static_cast<unsigned long long>(kSteadyAllocGate));
    }
    return 0;
  }

  if (sweep) {
    // Fixed size ladder for the perf trajectory: one BENCH file with the
    // per-size fields prefixed n<size>_, diffable by bench_compare.py.
    // --sparse=1 appends the population-scale sparse-vs-dense ladder to
    // the same document, so BENCH_round_latency.json carries both the
    // dense inner-parallel trajectory and the sparse sublinearity
    // evidence.
    const std::size_t sizes[] = {1000, 3000, 10000};
    bench::JsonFields fields{{"rounds", rounds}, {"workers", workers}};
    bool all_identical = true;
    double total_ms = 0.0;
    std::uint64_t worst_dense_steady = 0;
    for (const std::size_t size : sizes) {
      const std::string prefix = "n" + std::to_string(size) + "_";
      const Measurement m = measure_size(size, rounds, seed, inner_threads,
                                         workers, prefix, fields);
      all_identical = all_identical && m.identical;
      worst_dense_steady =
          std::max(worst_dense_steady, m.serial.steady_allocs());
      total_ms += m.serial.wall_ms + m.parallel.wall_ms;
    }

    std::uint64_t worst_steady = 0;
    if (sparse) {
      // Sparse rounds are sub-millisecond; run enough for a stable
      // reading even when the dense ladder above used --rounds=3.
      const std::size_t sparse_rounds =
          rounds_arg ? rounds : std::max<std::size_t>(rounds, 256);
      // Ascending so each size's peak-RSS snapshot is dominated by its
      // own footprint (getrusage peaks are monotone).
      const std::size_t sparse_sizes[] = {100'000, 1'000'000};
      double ms_100k = 0.0;
      double ratio_1m_vs_100k = 0.0;
      fields.emplace_back("sparse_rounds", sparse_rounds);
      fields.emplace_back("sparse_alloc_gate", kSteadyAllocGate);
      for (const std::size_t size : sparse_sizes) {
        const std::string prefix = "n" + std::to_string(size) + "_";
        const SparseMeasurement m = measure_sparse_size(
            size, sparse_rounds, dense_rounds, seed, prefix, fields);
        all_identical = all_identical && m.identical;
        worst_steady = std::max(worst_steady, m.sparse.steady_allocs());
        total_ms += m.sparse.wall_ms + m.dense.wall_ms;
        if (size == 100'000) ms_100k = m.sparse.ms_per_round();
        if (size == 1'000'000 && ms_100k > 0.0)
          ratio_1m_vs_100k = m.sparse.ms_per_round() / ms_100k;
      }
      fields.emplace_back("sparse_ms_ratio_1m_vs_100k", ratio_1m_vs_100k);
      std::printf("\nsublinearity: 1M-node sparse ms/round is %.2fx the "
                  "100k-node cost (3x budget at fixed committee size)\n",
                  ratio_1m_vs_100k);
    }

    fields.emplace_back("wall_ms", total_ms);
    bench::emit_json("round_latency", fields);
    if (!all_identical) {
      std::fprintf(stderr, "ERROR: results diverged across evaluations\n");
      return 1;
    }
    if (self_check && sparse && !within_alloc_gate("sparse", worst_steady))
      return 1;
    if (self_check && !within_alloc_gate("dense", worst_dense_steady))
      return 1;
    return 0;
  }

  bench::JsonFields fields{{"nodes", nodes},
                           {"rounds", rounds},
                           {"inner_threads", inner_threads},
                           {"workers", workers}};
  const Measurement m = measure_size(nodes, rounds, seed, inner_threads,
                                     workers, "", fields);

  if (!self_check) {
    // Accumulator memory story at this node count: record every per-node
    // outcome of the serial pass into both reduction backends. The exact
    // matrix grows with nodes x rounds; the streaming sketch must stay at
    // O(rounds) — the state a paper-scale sharded sweep ships per shard.
    sim::RoundAccumulator exact(sim::AggBackend::Exact, rounds);
    sim::RoundAccumulator streaming(sim::AggBackend::Streaming, rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const sim::NodeOutcome outcome : m.serial.outcomes[r]) {
        const double sample = static_cast<double>(outcome);
        exact.record(r, sample);
        streaming.record(r, sample);
      }
    }
    const double mem_ratio = static_cast<double>(exact.memory_bytes()) /
                             static_cast<double>(streaming.memory_bytes());
    std::printf("accumulator memory (%zu samples/round): exact %.1f KiB, "
                "streaming %.1f KiB (%.1fx smaller)\n",
                nodes, static_cast<double>(exact.memory_bytes()) / 1024.0,
                static_cast<double>(streaming.memory_bytes()) / 1024.0,
                mem_ratio);
    fields.emplace_back("exact_accum_bytes", exact.memory_bytes());
    fields.emplace_back("streaming_accum_bytes", streaming.memory_bytes());
    fields.emplace_back("accum_memory_ratio", mem_ratio);
  }
  fields.emplace_back("wall_ms", m.serial.wall_ms + m.parallel.wall_ms);
  bench::emit_json("round_latency", fields);

  if (!m.identical) {
    std::fprintf(stderr,
                 "ERROR: inner-parallel results diverged from serial\n");
    return 1;
  }
  if (self_check) {
    if (!within_alloc_gate("dense", m.serial.steady_allocs())) return 1;
    std::printf("\nself-check OK: serial and inner-parallel rounds are "
                "bit-identical; serial steady-state allocations %llu/round "
                "within the gate (%llu)\n",
                static_cast<unsigned long long>(m.serial.steady_allocs()),
                static_cast<unsigned long long>(kSteadyAllocGate));
  } else {
    std::printf("\nShape check: speedup > 1.5x expected at >=100k nodes on\n"
                "4+ cores; ~1.0x on a single-core machine is normal.\n");
  }
  return 0;
}
