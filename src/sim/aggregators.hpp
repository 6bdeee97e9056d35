// The mergeable per-round reduction behind every figure's Monte-Carlo
// runs.
//
// Every figure in the paper reduces per-round series across independent
// runs by the 20%-trimmed mean (§III-C), a plain mean or percentiles.
// RoundAccumulator is that reduction: one value type on one of two
// backends (AggBackend, the --agg knob):
//
//   Exact      the full per-round sample matrix, in record order. O(runs)
//              memory per round; every series is exact, and merging
//              per-run (or per-shard) partials in run-index order is
//              bit-identical to a serial execution. The default, and the
//              baseline the streaming backend is measured against.
//   Streaming  constant memory per round, independent of the run count:
//              a Welford RunningStats (exact mean / min / max), a bank of
//              P² quantile estimators for a fixed grid, and a
//              deterministic reservoir sample (util/streaming_stats.hpp)
//              for the trimmed mean and off-grid percentiles. Exact while
//              runs <= reservoir capacity; beyond that, estimates with the
//              documented reservoir error bound (tested in
//              test_aggregators.cpp).
//
// Both backends serialize to/from util::json values — the interchange
// format of the run-range sharding workflow (ExperimentSpec::shard +
// the merge_partials tool). Exact-backend partials round-trip bit for
// bit; merging a streaming partial falls back from P² (a sequential
// algorithm with no merge) to the mergeable reservoir for percentiles.
//
// Empty-round semantics (both backends): a round with zero recorded
// samples — reachable once a scenario records conditionally, e.g. churn
// emptying a cohort — reduces to quiet NaN in every *_series method,
// deterministically. util::stats is never invoked on an empty vector
// (percentile would throw; mean / trimmed_mean would silently fabricate
// 0.0, which is indistinguishable from a real zero). Consumers must skip
// or map the NaN explicitly (bench::emit_json writes it as JSON null).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/streaming_stats.hpp"

namespace roleshare::sim {

enum class AggBackend : std::uint8_t { Exact, Streaming };

/// "exact" / "streaming" — the --agg knob vocabulary and the JSON
/// backend tag. Both functions fail loudly on unknown input.
const char* to_string(AggBackend backend);
AggBackend parse_agg_backend(std::string_view name);

/// One per-round reduction state with mergeable partials. merge() is
/// associative over contiguous run ranges; under the exact backend,
/// (record in run order) == (merge of run-range partials in range order),
/// bit for bit.
class RoundAccumulator {
 public:
  /// Streaming reservoir capacity per round; estimates are exact while a
  /// round's sample count stays at or below it. With the grid below,
  /// per-round state stays at ~2.5 KB regardless of run count and
  /// figure-scale series within a few percent of exact.
  static constexpr std::size_t kReservoirCapacity = 256;
  /// Quantile grid (percent units) tracked by dedicated P² estimators;
  /// off-grid percentile queries fall back to the reservoir.
  static constexpr std::array<double, 5> kP2Grid = {5.0, 25.0, 50.0, 75.0,
                                                    95.0};

  /// Empty state for `rounds` (> 0) rounds on `backend`.
  RoundAccumulator(AggBackend backend, std::size_t rounds);

  AggBackend backend() const { return backend_; }
  std::size_t rounds() const;
  std::size_t count(std::size_t round_index) const;
  /// True when round_index has no samples (its series entries are NaN).
  bool empty_round(std::size_t round_index) const {
    return count(round_index) == 0;
  }

  void record(std::size_t round_index, double value);

  /// Folds `other` in after this accumulator's own samples — the shard
  /// reduction step. Per-round counts may differ between the two sides
  /// (runs of different lengths). Requires the same backend and round
  /// count; a mismatch throws std::invalid_argument naming both sides.
  void merge(const RoundAccumulator& other);

  /// Per-round trimmed mean (the paper's §III-C reduction).
  std::vector<double> trimmed_mean_series(double trim_fraction) const;
  /// Per-round arithmetic mean.
  std::vector<double> mean_series() const;
  /// Per-round linear-interpolated percentile, p in [0, 100].
  std::vector<double> percentile_series(double p) const;

  /// Bytes of heap + object state held; the exact backend grows with the
  /// run count, the streaming backend does not (tested).
  std::size_t memory_bytes() const;

  /// Serialization for shard partials; from_json inverts it.
  util::json::Value to_json() const;
  /// Throws std::invalid_argument on malformed input. A streaming document
  /// no writer produces is refused naming `entry` (the document entry
  /// being read): another sketch shape than the constants above, or a
  /// round whose reservoir seen count differs from its count or that
  /// claims more than kReservoirCapacity draws per sample seen.
  static RoundAccumulator from_json(const util::json::Value& value,
                                    std::string_view entry = "accumulator");

 private:
  /// One streaming round. `p2_live` drops to false once a cross-partial
  /// merge makes the sequential P² state unrepresentative; the
  /// percentile path then falls back to the (mergeable) reservoir.
  struct RoundSketch {
    util::RunningStats stats;
    util::ReservoirSample reservoir;
    std::vector<util::P2Quantile> p2;
    bool p2_live = true;
  };

  void check_round(std::size_t round_index) const;

  AggBackend backend_;
  std::vector<std::vector<double>> samples_;  // exact only
  std::vector<RoundSketch> sketches_;         // streaming only
};

}  // namespace roleshare::sim
