#include "sim/metrics.hpp"

namespace roleshare::sim {

namespace {

// The three outcome entries, in document order.
enum Outcome : std::size_t { kFinal, kTentative, kNone };

const ReductionLayout kLayout{{"final", "tentative", "none"}, {}};

}  // namespace

OutcomeMetrics::OutcomeMetrics(std::size_t rounds, AggBackend backend)
    : state_(kLayout, backend, rounds) {}

void OutcomeMetrics::record(std::size_t round_index,
                            const RoundResult& result) {
  record(round_index, result.final_fraction * 100.0,
         result.tentative_fraction * 100.0, result.none_fraction * 100.0);
}

void OutcomeMetrics::record(std::size_t round_index, double final_pct,
                            double tentative_pct, double none_pct) {
  state_.accumulator(kFinal).record(round_index, final_pct);
  state_.accumulator(kTentative).record(round_index, tentative_pct);
  state_.accumulator(kNone).record(round_index, none_pct);
}

void OutcomeMetrics::merge(const OutcomeMetrics& other) {
  state_.merge(other.state_);
}

std::size_t OutcomeMetrics::runs_recorded(std::size_t round_index) const {
  return state_.accumulator(kFinal).count(round_index);
}

std::vector<RoundAggregate> OutcomeMetrics::aggregate(
    double trim_fraction) const {
  const std::vector<double> final_series =
      state_.accumulator(kFinal).trimmed_mean_series(trim_fraction);
  const std::vector<double> tentative_series =
      state_.accumulator(kTentative).trimmed_mean_series(trim_fraction);
  const std::vector<double> none_series =
      state_.accumulator(kNone).trimmed_mean_series(trim_fraction);
  std::vector<RoundAggregate> out(final_series.size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r].final_pct = final_series[r];
    out[r].tentative_pct = tentative_series[r];
    out[r].none_pct = none_series[r];
  }
  return out;
}

std::size_t OutcomeMetrics::memory_bytes() const {
  return state_.memory_bytes();
}

util::json::Value OutcomeMetrics::to_json() const { return state_.to_json(); }

OutcomeMetrics OutcomeMetrics::from_json(const util::json::Value& value) {
  const util::json::Value& first = value.at("final");
  return from_json(value, parse_agg_backend(first.at("backend").as_string()),
                   first.at("rounds").as_size(), {});
}

OutcomeMetrics OutcomeMetrics::from_json(const util::json::Value& value,
                                         AggBackend backend,
                                         std::size_t rounds,
                                         std::string_view context) {
  return OutcomeMetrics(
      ReductionState::from_json(kLayout, value, backend, rounds, context));
}

}  // namespace roleshare::sim
