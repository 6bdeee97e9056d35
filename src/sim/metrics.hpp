// Aggregation of per-round outcomes across simulation runs — the paper's
// 20%-trimmed-mean methodology (§III-C) producing the Fig-3 series.
// Built on the shared ReductionState (sim/partial.hpp), so per-run (or
// per-shard) partials merge in run-index order under either the exact or
// the streaming backend, and a read checks all three entries alike.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "sim/aggregators.hpp"
#include "sim/partial.hpp"
#include "sim/round_engine.hpp"
#include "util/json.hpp"

namespace roleshare::sim {

/// Trimmed-mean outcome fractions for one round index.
struct RoundAggregate {
  double final_pct = 0.0;      // % of nodes extracting a final block
  double tentative_pct = 0.0;  // % extracting only a tentative block
  double none_pct = 0.0;       // % extracting no block
};

class OutcomeMetrics {
 public:
  /// `backend` selects the accumulator implementation behind all three
  /// outcome series; Exact reproduces the historical sample matrix bit
  /// for bit.
  explicit OutcomeMetrics(std::size_t rounds,
                          AggBackend backend = AggBackend::Exact);

  OutcomeMetrics(OutcomeMetrics&&) = default;
  OutcomeMetrics& operator=(OutcomeMetrics&&) = default;

  /// Records one run's result for `round_index` (0-based).
  void record(std::size_t round_index, const RoundResult& result);

  /// Same, from already-computed percentages (0..100) — the form per-run
  /// partials carry across the thread-pool boundary.
  void record(std::size_t round_index, double final_pct, double tentative_pct,
              double none_pct);

  /// Folds `other` in after this instance's own samples (run-index-ordered
  /// reduction; requires equal round counts and the same backend).
  void merge(const OutcomeMetrics& other);

  AggBackend backend() const { return state_.backend(); }
  std::size_t rounds() const { return state_.rounds(); }
  std::size_t runs_recorded(std::size_t round_index) const;

  /// Trimmed-mean series over all recorded runs (percentages, 0..100).
  std::vector<RoundAggregate> aggregate(double trim_fraction = 0.2) const;

  /// Bytes held by the three outcome accumulators.
  std::size_t memory_bytes() const;

  /// Shard-partial serialization; from_json inverts it exactly for the
  /// exact backend. The one-argument form takes the expected backend and
  /// round count from the "final" entry; the other refuses any entry
  /// that disagrees with `backend` / `rounds`, naming it as `context` +
  /// key.
  util::json::Value to_json() const;
  static OutcomeMetrics from_json(const util::json::Value& value);
  static OutcomeMetrics from_json(const util::json::Value& value,
                                  AggBackend backend, std::size_t rounds,
                                  std::string_view context);

 private:
  explicit OutcomeMetrics(ReductionState state) : state_(std::move(state)) {}

  ReductionState state_;  // final, tentative, none
};

}  // namespace roleshare::sim
