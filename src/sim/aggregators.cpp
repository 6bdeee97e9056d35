#include "sim/aggregators.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace roleshare::sim {

namespace {

/// The deterministic reduction of a round nobody recorded a sample for.
constexpr double empty_round_value() {
  return std::numeric_limits<double>::quiet_NaN();
}

/// Root of the streaming backend's private reservoir streams: round r's
/// reservoir is seeded with Rng(kReservoirSeedRoot).derive_seed(r), so
/// every streaming accumulator replaces samples identically — determinism
/// across processes and shards.
constexpr std::uint64_t kReservoirSeedRoot = 0x5ee4ac0c0de5eedULL;

std::uint64_t reservoir_seed_for_round(std::size_t round_index) {
  return util::Rng(kReservoirSeedRoot).derive_seed(round_index);
}

/// The P² grid as its documents write it, e.g. [5,25,50,75,95].
util::json::Value p2_grid_json() {
  util::json::Value grid = util::json::Value::array();
  for (const double q : RoundAccumulator::kP2Grid) grid.push_back(q);
  return grid;
}

}  // namespace

const char* to_string(AggBackend backend) {
  switch (backend) {
    case AggBackend::Exact:
      return "exact";
    case AggBackend::Streaming:
      return "streaming";
  }
  RS_ENSURE(false, "unhandled AggBackend value " +
                       std::to_string(static_cast<int>(backend)));
}

AggBackend parse_agg_backend(std::string_view name) {
  if (name == "exact") return AggBackend::Exact;
  if (name == "streaming") return AggBackend::Streaming;
  throw std::invalid_argument("unknown aggregator backend \"" +
                              std::string(name) +
                              "\" (expected \"exact\" or \"streaming\")");
}

// ---------------------------------------------------------------------
// RoundAccumulator

RoundAccumulator::RoundAccumulator(AggBackend backend, std::size_t rounds)
    : backend_(backend) {
  RS_REQUIRE(rounds > 0, "aggregator needs at least one round");
  if (backend_ == AggBackend::Exact) {
    samples_.resize(rounds);
    return;
  }
  sketches_.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    RoundSketch sketch{
        util::RunningStats{},
        util::ReservoirSample(kReservoirCapacity, reservoir_seed_for_round(r)),
        {},
        true};
    sketch.p2.reserve(kP2Grid.size());
    for (const double q : kP2Grid) sketch.p2.emplace_back(q / 100.0);
    sketches_.push_back(std::move(sketch));
  }
}

std::size_t RoundAccumulator::rounds() const {
  return backend_ == AggBackend::Exact ? samples_.size() : sketches_.size();
}

void RoundAccumulator::check_round(std::size_t round_index) const {
  RS_REQUIRE(round_index < rounds(),
             "round index past the accumulator's round count");
}

std::size_t RoundAccumulator::count(std::size_t round_index) const {
  check_round(round_index);
  return backend_ == AggBackend::Exact
             ? samples_[round_index].size()
             : sketches_[round_index].stats.count();
}

void RoundAccumulator::record(std::size_t round_index, double value) {
  check_round(round_index);
  if (backend_ == AggBackend::Exact) {
    samples_[round_index].push_back(value);
    return;
  }
  RoundSketch& sketch = sketches_[round_index];
  sketch.stats.add(value);
  sketch.reservoir.add(value);
  for (util::P2Quantile& p2 : sketch.p2) p2.add(value);
}

void RoundAccumulator::merge(const RoundAccumulator& other) {
  // Shard merges hit these checks first when partials disagree, so each
  // message names both sides — "which shard is malformed" is
  // undiagnosable from a bare mismatch report.
  RS_REQUIRE(backend_ == other.backend_,
             std::string("merging accumulators of different backends: "
                         "this is ") +
                 to_string(backend_) + ", other is " +
                 to_string(other.backend_));
  RS_REQUIRE(rounds() == other.rounds(),
             "merging accumulators with different round counts: this has " +
                 std::to_string(rounds()) + " rounds, other has " +
                 std::to_string(other.rounds()));
  if (backend_ == AggBackend::Exact) {
    for (std::size_t r = 0; r < samples_.size(); ++r)
      samples_[r].insert(samples_[r].end(), other.samples_[r].begin(),
                         other.samples_[r].end());
    return;
  }
  for (std::size_t r = 0; r < sketches_.size(); ++r) {
    RoundSketch& mine = sketches_[r];
    const RoundSketch& theirs = other.sketches_[r];
    if (theirs.stats.count() == 0) continue;
    if (mine.stats.count() == 0) {
      // Wholesale adoption keeps the sequential P² state valid.
      mine = theirs;
      continue;
    }
    mine.stats.merge(theirs.stats);
    mine.reservoir.merge(theirs.reservoir);
    // P² is a sequential algorithm with no merge; percentile queries on
    // this round now fall back to the (mergeable) reservoir.
    mine.p2_live = false;
  }
}

std::vector<double> RoundAccumulator::trimmed_mean_series(
    double trim_fraction) const {
  std::vector<double> out(rounds());
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::vector<double>& retained =
        backend_ == AggBackend::Exact ? samples_[r]
                                      : sketches_[r].reservoir.samples();
    out[r] = count(r) == 0 ? empty_round_value()
                           : util::trimmed_mean(retained, trim_fraction);
  }
  return out;
}

std::vector<double> RoundAccumulator::mean_series() const {
  std::vector<double> out(rounds());
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (count(r) == 0) {
      out[r] = empty_round_value();
    } else {
      out[r] = backend_ == AggBackend::Exact ? util::mean(samples_[r])
                                             : sketches_[r].stats.mean();
    }
  }
  return out;
}

std::vector<double> RoundAccumulator::percentile_series(double p) const {
  RS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile in [0, 100]");
  const auto streaming_estimate = [&](const RoundSketch& sketch) {
    if (p == 0.0) return sketch.stats.min();    // extremes are tracked
    if (p == 100.0) return sketch.stats.max();  // exactly by RunningStats
    // The reservoir still holding every sample answers exactly; past
    // capacity, a live on-grid P² estimator beats the subsample.
    if (!sketch.reservoir.exact() && sketch.p2_live) {
      for (std::size_t i = 0; i < kP2Grid.size(); ++i)
        if (std::abs(kP2Grid[i] - p) < 1e-9) return sketch.p2[i].estimate();
    }
    return util::percentile(sketch.reservoir.samples(), p);
  };
  std::vector<double> out(rounds());
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (count(r) == 0) {
      out[r] = empty_round_value();
    } else {
      out[r] = backend_ == AggBackend::Exact
                   ? util::percentile(samples_[r], p)
                   : streaming_estimate(sketches_[r]);
    }
  }
  return out;
}

std::size_t RoundAccumulator::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const std::vector<double>& round : samples_)
    bytes += sizeof(round) + round.capacity() * sizeof(double);
  for (const RoundSketch& sketch : sketches_) {
    bytes += sizeof(RoundSketch);
    bytes += sketch.reservoir.samples().capacity() * sizeof(double);
    bytes += sketch.p2.capacity() * sizeof(util::P2Quantile);
  }
  return bytes;
}

util::json::Value RoundAccumulator::to_json() const {
  using util::json::Value;
  Value v = Value::object();
  v.set("backend", to_string(backend_));
  v.set("rounds", rounds());
  if (backend_ == AggBackend::Exact) {
    Value matrix = Value::array();
    for (const std::vector<double>& round : samples_) {
      Value row = Value::array();
      for (const double x : round) row.push_back(x);
      matrix.push_back(std::move(row));
    }
    v.set("samples", std::move(matrix));
    return v;
  }
  // The sketch shape is a constant; it stays in every document so the
  // bytes of earlier builds' partials, and their store keys, still match.
  v.set("reservoir_capacity", kReservoirCapacity);
  v.set("p2_grid", p2_grid_json());
  Value stats = Value::array();
  for (const RoundSketch& sketch : sketches_) {
    Value s = Value::object();
    s.set("n", sketch.stats.count());
    s.set("mean", sketch.stats.mean());
    s.set("m2", sketch.stats.m2());
    s.set("min", sketch.stats.min());
    s.set("max", sketch.stats.max());
    s.set("seen", sketch.reservoir.seen());
    s.set("rng_draws", sketch.reservoir.draws());
    Value samples = Value::array();
    for (const double x : sketch.reservoir.samples()) samples.push_back(x);
    s.set("reservoir", std::move(samples));
    s.set("p2_live", sketch.p2_live);
    Value p2s = Value::array();
    for (const util::P2Quantile& p2 : sketch.p2) {
      const util::P2Quantile::State st = p2.state();
      Value p = Value::object();
      p.set("q", st.q);
      p.set("count", st.count);
      Value h = Value::array(), pos = Value::array(), des = Value::array();
      for (std::size_t i = 0; i < 5; ++i) {
        h.push_back(st.heights[i]);
        pos.push_back(st.positions[i]);
        des.push_back(st.desired[i]);
      }
      p.set("heights", std::move(h));
      p.set("positions", std::move(pos));
      p.set("desired", std::move(des));
      p2s.push_back(std::move(p));
    }
    s.set("p2", std::move(p2s));
    stats.push_back(std::move(s));
  }
  v.set("round_stats", std::move(stats));
  return v;
}

RoundAccumulator RoundAccumulator::from_json(const util::json::Value& value,
                                             std::size_t max_count,
                                             std::string_view entry) {
  const std::string name(entry);
  const AggBackend backend =
      parse_agg_backend(value.at("backend").as_string());
  const std::size_t rounds = value.at("rounds").as_size();
  RS_REQUIRE(rounds > 0, name + " has zero rounds");
  RoundAccumulator acc(backend, rounds);
  const auto check_count = [&](std::size_t r, std::size_t count) {
    RS_REQUIRE(count <= max_count,
               name + ", round " + std::to_string(r) + ": the round counts " +
                   std::to_string(count) + " samples but its partial ran " +
                   std::to_string(max_count) + " runs");
  };

  if (backend == AggBackend::Exact) {
    const auto& matrix = value.at("samples").as_array();
    RS_REQUIRE(matrix.size() == rounds,
               name + " has a sample matrix of " +
                   std::to_string(matrix.size()) + " rows for " +
                   std::to_string(rounds) + " rounds");
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto& row = matrix[r].as_array();
      check_count(r, row.size());
      for (const util::json::Value& x : row)
        acc.samples_[r].push_back(x.as_number());
    }
    return acc;
  }

  // No writer produces another sketch shape; a document that claims one
  // is refused here instead of merging into a partial of the real one.
  const std::size_t capacity = value.at("reservoir_capacity").as_size();
  RS_REQUIRE(capacity == kReservoirCapacity,
             name + " has reservoir capacity " + std::to_string(capacity) +
                 " but the streaming backend's is " +
                 std::to_string(kReservoirCapacity));
  const std::string grid = value.at("p2_grid").dump();
  RS_REQUIRE(grid == p2_grid_json().dump(),
             name + " has P2 grid " + grid +
                 " but the streaming backend's is " + p2_grid_json().dump());
  const auto& stats = value.at("round_stats").as_array();
  RS_REQUIRE(stats.size() == rounds,
             name + " has " + std::to_string(stats.size()) +
                 " round_stats entries for " + std::to_string(rounds) +
                 " rounds");
  const auto read_round = [](const util::json::Value& s, std::size_t r,
                             RoundSketch& sketch) {
    sketch.stats = util::RunningStats::from_state(
        s.at("n").as_size(), s.at("mean").as_number(), s.at("m2").as_number(),
        s.at("min").as_number(), s.at("max").as_number());
    // Both counts take every recorded sample, and a merge adds the other
    // side's count to each, so they agree in every document a writer
    // produces.
    const std::size_t seen = s.at("seen").as_size();
    RS_REQUIRE(seen == sketch.stats.count(),
               "the reservoir has seen " + std::to_string(seen) +
                   " samples but the round counts " +
                   std::to_string(sketch.stats.count()));
    std::vector<double> samples;
    for (const util::json::Value& x : s.at("reservoir").as_array())
      samples.push_back(x.as_number());
    sketch.reservoir = util::ReservoirSample::from_state(
        kReservoirCapacity, reservoir_seed_for_round(r), seen,
        s.at("rng_draws").as_size(), std::move(samples));
    sketch.p2_live = s.at("p2_live").as_bool();
    const auto& p2s = s.at("p2").as_array();
    RS_REQUIRE(p2s.size() == kP2Grid.size(),
               std::to_string(p2s.size()) + " P2 estimators for a grid of " +
                   std::to_string(kP2Grid.size()));
    sketch.p2.clear();
    for (const util::json::Value& p : p2s) {
      util::P2Quantile::State st;
      st.q = p.at("q").as_number();
      st.count = p.at("count").as_size();
      const auto& h = p.at("heights").as_array();
      const auto& pos = p.at("positions").as_array();
      const auto& des = p.at("desired").as_array();
      RS_REQUIRE(h.size() == 5 && pos.size() == 5 && des.size() == 5,
                 "P2 marker arrays must have 5 entries");
      for (std::size_t i = 0; i < 5; ++i) {
        st.heights[i] = h[i].as_number();
        st.positions[i] = pos[i].as_number();
        st.desired[i] = des[i].as_number();
      }
      sketch.p2.push_back(util::P2Quantile::from_state(st));
    }
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    // The count comes first: the reservoir replays its draws on read.
    check_count(r, stats[r].at("n").as_size());
    // A refusal inside a round names the entry and the round.
    try {
      read_round(stats[r], r, acc.sketches_[r]);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(name + ", round " + std::to_string(r) +
                                  ": " + e.what());
    }
  }
  return acc;
}

}  // namespace roleshare::sim
