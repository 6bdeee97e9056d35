// The mergeable accumulator layer behind every figure's Monte-Carlo
// reduction.
//
// Every figure in the paper reduces per-round series across independent
// runs by the 20%-trimmed mean (§III-C) or by percentiles. This header
// provides that reduction behind one concept — RoundAccumulator — with
// two interchangeable backends:
//
//   ExactAccumulator     wraps PerRoundSamples, the full sample matrix.
//                        O(runs) memory per round; every series is exact,
//                        and merging per-run (or per-shard) partials in
//                        run-index order is bit-identical to a serial
//                        execution. The default, and the baseline every
//                        other backend is measured against.
//   StreamingAccumulator constant memory per round, independent of the
//                        run count: a Welford RunningStats (exact mean /
//                        min / max), a bank of P² quantile estimators for
//                        a fixed grid, and a deterministic reservoir
//                        sample (util/streaming_stats.hpp) for the
//                        trimmed mean and off-grid percentiles. Exact
//                        while runs <= reservoir capacity; beyond that,
//                        estimates with the documented reservoir error
//                        bound (tested in test_aggregators.cpp).
//
// Both backends serialize to/from util::json values — the interchange
// format of the run-range sharding workflow (ExperimentSpec::shard +
// the merge_partials tool). Exact-backend partials round-trip bit for
// bit; merging a streaming partial falls back from P² (a sequential
// algorithm with no merge) to the mergeable reservoir for percentiles.
//
// Empty-round semantics (both backends): a round with zero recorded
// samples reduces to quiet NaN in every *_series method, never a
// fabricated 0.0 — see PerRoundSamples below.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/streaming_stats.hpp"

namespace roleshare::sim {

// ---------------------------------------------------------------------
// PerRoundSamples — the exact sample matrix (pre-dates the accumulator
// concept; ExactAccumulator wraps it). Keeps samples in insertion order,
// so merging per-run partials in run-index order reproduces a serial
// execution bit for bit.
//
// Empty-round semantics: a round with zero recorded samples — reachable
// once a scenario records conditionally, e.g. churn emptying a cohort —
// reduces to quiet NaN in every *_series method, deterministically.
// util::stats is never invoked on an empty vector (percentile would
// throw; mean / trimmed_mean would silently fabricate 0.0, which is
// indistinguishable from a real zero). Consumers must skip or map the
// NaN explicitly (bench::emit_json writes it as JSON null).
class PerRoundSamples {
 public:
  explicit PerRoundSamples(std::size_t rounds);

  std::size_t rounds() const { return samples_.size(); }
  std::size_t count(std::size_t round_index) const;
  /// True when round_index has no samples (its series entries are NaN).
  bool empty_round(std::size_t round_index) const;
  const std::vector<double>& samples(std::size_t round_index) const;

  void record(std::size_t round_index, double value);

  /// Appends every sample of `other` (same round count required) in round
  /// order — the run-index-ordered reduction step. Per-round counts may
  /// differ between the two operands (runs of different lengths).
  void merge(const PerRoundSamples& other);

  /// Per-round trimmed mean (the paper's §III-C reduction); NaN for
  /// empty rounds.
  std::vector<double> trimmed_mean_series(double trim_fraction) const;

  /// Per-round arithmetic mean; NaN for empty rounds.
  std::vector<double> mean_series() const;

  /// Per-round linear-interpolated percentile, p in [0, 100]; NaN for
  /// empty rounds.
  std::vector<double> percentile_series(double p) const;

 private:
  std::vector<std::vector<double>> samples_;
};

// ---------------------------------------------------------------------
// The accumulator concept.

enum class AggBackend : std::uint8_t { Exact, Streaming };

/// "exact" / "streaming" — the --agg knob vocabulary and the JSON
/// backend tag. Both functions fail loudly on unknown input.
const char* to_string(AggBackend backend);
AggBackend parse_agg_backend(std::string_view name);

/// One per-round reduction state with mergeable partials. Implementations
/// must keep merge() associative over contiguous run ranges; the exact
/// backend must additionally make (record in run order) == (merge of
/// run-range partials in range order), bit for bit.
class RoundAccumulator {
 public:
  virtual ~RoundAccumulator() = default;

  virtual AggBackend backend() const = 0;
  virtual std::size_t rounds() const = 0;
  virtual std::size_t count(std::size_t round_index) const = 0;
  bool empty_round(std::size_t round_index) const {
    return count(round_index) == 0;
  }

  virtual void record(std::size_t round_index, double value) = 0;

  /// Folds `other` in after this accumulator's own samples — the shard
  /// reduction step. Requires the same backend, round count and (for
  /// streaming) sketch shape; violations throw std::invalid_argument
  /// naming both sides.
  virtual void merge(const RoundAccumulator& other) = 0;

  /// The series contracts of PerRoundSamples (NaN for empty rounds).
  virtual std::vector<double> trimmed_mean_series(
      double trim_fraction) const = 0;
  virtual std::vector<double> mean_series() const = 0;
  virtual std::vector<double> percentile_series(double p) const = 0;

  /// Bytes of heap + object state held; the exact backend grows with the
  /// run count, the streaming backend must not (tested).
  virtual std::size_t memory_bytes() const = 0;

  /// Serialization for shard partials; accumulator_from_json inverts it.
  virtual util::json::Value to_json() const = 0;

  virtual std::unique_ptr<RoundAccumulator> clone() const = 0;
};

std::unique_ptr<RoundAccumulator> make_accumulator(AggBackend backend,
                                                   std::size_t rounds);

/// Rebuilds either backend from its to_json() form; throws
/// std::invalid_argument on malformed input.
std::unique_ptr<RoundAccumulator> accumulator_from_json(
    const util::json::Value& value);

// ---------------------------------------------------------------------
// Backends.

class ExactAccumulator final : public RoundAccumulator {
 public:
  explicit ExactAccumulator(std::size_t rounds) : samples_(rounds) {}
  explicit ExactAccumulator(PerRoundSamples samples)
      : samples_(std::move(samples)) {}

  AggBackend backend() const override { return AggBackend::Exact; }
  std::size_t rounds() const override { return samples_.rounds(); }
  std::size_t count(std::size_t round_index) const override {
    return samples_.count(round_index);
  }
  void record(std::size_t round_index, double value) override {
    samples_.record(round_index, value);
  }
  void merge(const RoundAccumulator& other) override;
  std::vector<double> trimmed_mean_series(double trim_fraction) const override {
    return samples_.trimmed_mean_series(trim_fraction);
  }
  std::vector<double> mean_series() const override {
    return samples_.mean_series();
  }
  std::vector<double> percentile_series(double p) const override {
    return samples_.percentile_series(p);
  }
  std::size_t memory_bytes() const override;
  util::json::Value to_json() const override;
  std::unique_ptr<RoundAccumulator> clone() const override {
    return std::make_unique<ExactAccumulator>(*this);
  }

  const PerRoundSamples& samples() const { return samples_; }

 private:
  PerRoundSamples samples_;
};

class StreamingAccumulator final : public RoundAccumulator {
 public:
  /// Reservoir capacity per round; estimates are exact while a round's
  /// sample count stays at or below it. With the grid below, per-round
  /// state stays at ~2.5 KB regardless of run count and figure-scale
  /// series within a few percent of exact.
  static constexpr std::size_t kReservoirCapacity = 256;
  /// Quantile grid (percent units) tracked by dedicated P² estimators;
  /// off-grid percentile queries fall back to the reservoir.
  static constexpr std::array<double, 5> kP2Grid = {5.0, 25.0, 50.0, 75.0,
                                                    95.0};

  explicit StreamingAccumulator(std::size_t rounds);

  AggBackend backend() const override { return AggBackend::Streaming; }
  std::size_t rounds() const override { return rounds_.size(); }
  std::size_t count(std::size_t round_index) const override;
  void record(std::size_t round_index, double value) override;
  void merge(const RoundAccumulator& other) override;
  std::vector<double> trimmed_mean_series(double trim_fraction) const override;
  std::vector<double> mean_series() const override;
  std::vector<double> percentile_series(double p) const override;
  std::size_t memory_bytes() const override;
  util::json::Value to_json() const override;
  std::unique_ptr<RoundAccumulator> clone() const override {
    return std::make_unique<StreamingAccumulator>(*this);
  }

 private:
  friend std::unique_ptr<RoundAccumulator> accumulator_from_json(
      const util::json::Value& value);

  /// A sketch shape read from a partial: merge() still refuses one that
  /// differs from the other side's.
  StreamingAccumulator(std::size_t rounds, std::size_t reservoir_capacity,
                       std::vector<double> p2_grid);

  /// Per-round sketch bundle. `p2_live` drops to false once a cross-
  /// partial merge makes the sequential P² state unrepresentative; the
  /// percentile path then falls back to the (mergeable) reservoir.
  struct RoundStat {
    util::RunningStats stats;
    util::ReservoirSample reservoir;
    std::vector<util::P2Quantile> p2;
    bool p2_live = true;
  };

  const RoundStat& round_at(std::size_t round_index) const;

  std::size_t reservoir_capacity_;
  std::vector<double> p2_grid_;
  std::vector<RoundStat> rounds_;
};

}  // namespace roleshare::sim
