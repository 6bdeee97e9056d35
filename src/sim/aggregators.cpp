#include "sim/aggregators.hpp"

#include <cmath>
#include <limits>

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
/// every StreamingAccumulator of the same shape replaces samples
/// identically — determinism across processes and shards.
constexpr std::uint64_t kReservoirSeedRoot = 0x5ee4ac0c0de5eedULL;

std::uint64_t reservoir_seed_for_round(std::size_t round_index) {
  return util::Rng(kReservoirSeedRoot).derive_seed(round_index);
}

}  // namespace

PerRoundSamples::PerRoundSamples(std::size_t rounds) : samples_(rounds) {
  RS_REQUIRE(rounds > 0, "aggregator needs at least one round");
}

std::size_t PerRoundSamples::count(std::size_t round_index) const {
  RS_REQUIRE(round_index < samples_.size(),
             "round index past the aggregator's round count");
  return samples_[round_index].size();
}

bool PerRoundSamples::empty_round(std::size_t round_index) const {
  return count(round_index) == 0;
}

const std::vector<double>& PerRoundSamples::samples(
    std::size_t round_index) const {
  RS_REQUIRE(round_index < samples_.size(),
             "round index past the aggregator's round count");
  return samples_[round_index];
}

void PerRoundSamples::record(std::size_t round_index, double value) {
  RS_REQUIRE(round_index < samples_.size(),
             "round index past the aggregator's round count");
  samples_[round_index].push_back(value);
}

void PerRoundSamples::merge(const PerRoundSamples& other) {
  // Shard merges hit this check first when partials disagree, so the
  // message must name both counts — "which shard is malformed" is
  // undiagnosable from a bare mismatch report.
  RS_REQUIRE(other.samples_.size() == samples_.size(),
             "merging aggregators with different round counts: this has " +
                 std::to_string(samples_.size()) + " rounds, other has " +
                 std::to_string(other.samples_.size()));
  for (std::size_t r = 0; r < samples_.size(); ++r) {
    samples_[r].insert(samples_[r].end(), other.samples_[r].begin(),
                       other.samples_[r].end());
  }
}

std::vector<double> PerRoundSamples::trimmed_mean_series(
    double trim_fraction) const {
  std::vector<double> out(samples_.size());
  for (std::size_t r = 0; r < samples_.size(); ++r) {
    out[r] = samples_[r].empty()
                 ? empty_round_value()
                 : util::trimmed_mean(samples_[r], trim_fraction);
  }
  return out;
}

std::vector<double> PerRoundSamples::mean_series() const {
  std::vector<double> out(samples_.size());
  for (std::size_t r = 0; r < samples_.size(); ++r) {
    out[r] =
        samples_[r].empty() ? empty_round_value() : util::mean(samples_[r]);
  }
  return out;
}

std::vector<double> PerRoundSamples::percentile_series(double p) const {
  std::vector<double> out(samples_.size());
  for (std::size_t r = 0; r < samples_.size(); ++r) {
    out[r] = samples_[r].empty() ? empty_round_value()
                                 : util::percentile(samples_[r], p);
  }
  return out;
}

// ---------------------------------------------------------------------

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

std::unique_ptr<RoundAccumulator> make_accumulator(AggBackend backend,
                                                   std::size_t rounds) {
  switch (backend) {
    case AggBackend::Exact:
      return std::make_unique<ExactAccumulator>(rounds);
    case AggBackend::Streaming:
      return std::make_unique<StreamingAccumulator>(rounds);
  }
  RS_ENSURE(false, "unhandled AggBackend value " +
                       std::to_string(static_cast<int>(backend)));
}

namespace {

/// Every cross-backend or cross-shape merge failure reports both sides.
void check_merge_shapes(const RoundAccumulator& self,
                        const RoundAccumulator& other) {
  RS_REQUIRE(self.backend() == other.backend(),
             std::string("merging accumulators of different backends: "
                         "this is ") +
                 to_string(self.backend()) + ", other is " +
                 to_string(other.backend()));
  RS_REQUIRE(self.rounds() == other.rounds(),
             "merging accumulators with different round counts: this has " +
                 std::to_string(self.rounds()) + " rounds, other has " +
                 std::to_string(other.rounds()));
}

}  // namespace

// ---------------------------------------------------------------------
// ExactAccumulator

void ExactAccumulator::merge(const RoundAccumulator& other) {
  check_merge_shapes(*this, other);
  samples_.merge(static_cast<const ExactAccumulator&>(other).samples_);
}

std::size_t ExactAccumulator::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (std::size_t r = 0; r < samples_.rounds(); ++r)
    bytes += sizeof(std::vector<double>) +
             samples_.samples(r).capacity() * sizeof(double);
  return bytes;
}

util::json::Value ExactAccumulator::to_json() const {
  util::json::Value v = util::json::Value::object();
  v.set("backend", to_string(backend()));
  v.set("rounds", samples_.rounds());
  util::json::Value matrix = util::json::Value::array();
  for (std::size_t r = 0; r < samples_.rounds(); ++r) {
    util::json::Value row = util::json::Value::array();
    for (const double x : samples_.samples(r)) row.push_back(x);
    matrix.push_back(std::move(row));
  }
  v.set("samples", std::move(matrix));
  return v;
}

// ---------------------------------------------------------------------
// StreamingAccumulator

StreamingAccumulator::StreamingAccumulator(std::size_t rounds)
    : StreamingAccumulator(rounds, kReservoirCapacity,
                           {kP2Grid.begin(), kP2Grid.end()}) {}

StreamingAccumulator::StreamingAccumulator(std::size_t rounds,
                                           std::size_t reservoir_capacity,
                                           std::vector<double> p2_grid)
    : reservoir_capacity_(reservoir_capacity), p2_grid_(std::move(p2_grid)) {
  RS_REQUIRE(rounds > 0, "aggregator needs at least one round");
  RS_REQUIRE(reservoir_capacity_ >= 1, "reservoir capacity >= 1");
  for (const double q : p2_grid_)
    RS_REQUIRE(q > 0.0 && q < 100.0, "P2 grid quantiles in (0, 100)");
  rounds_.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    RoundStat stat{
        util::RunningStats{},
        util::ReservoirSample(reservoir_capacity_,
                              reservoir_seed_for_round(r)),
        {},
        true};
    stat.p2.reserve(p2_grid_.size());
    for (const double q : p2_grid_)
      stat.p2.emplace_back(q / 100.0);
    rounds_.push_back(std::move(stat));
  }
}

const StreamingAccumulator::RoundStat& StreamingAccumulator::round_at(
    std::size_t round_index) const {
  RS_REQUIRE(round_index < rounds_.size(),
             "round index past the accumulator's round count");
  return rounds_[round_index];
}

std::size_t StreamingAccumulator::count(std::size_t round_index) const {
  return round_at(round_index).stats.count();
}

void StreamingAccumulator::record(std::size_t round_index, double value) {
  RS_REQUIRE(round_index < rounds_.size(),
             "round index past the accumulator's round count");
  RoundStat& stat = rounds_[round_index];
  stat.stats.add(value);
  stat.reservoir.add(value);
  for (util::P2Quantile& p2 : stat.p2) p2.add(value);
}

void StreamingAccumulator::merge(const RoundAccumulator& other_base) {
  check_merge_shapes(*this, other_base);
  const auto& other = static_cast<const StreamingAccumulator&>(other_base);
  RS_REQUIRE(
      other.reservoir_capacity_ == reservoir_capacity_,
      "merging streaming accumulators with different reservoir capacities: "
      "this has " +
          std::to_string(reservoir_capacity_) + ", other has " +
          std::to_string(other.reservoir_capacity_));
  RS_REQUIRE(other.p2_grid_ == p2_grid_,
             "merging streaming accumulators with different P2 grids");
  for (std::size_t r = 0; r < rounds_.size(); ++r) {
    RoundStat& mine = rounds_[r];
    const RoundStat& theirs = other.rounds_[r];
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

std::vector<double> StreamingAccumulator::trimmed_mean_series(
    double trim_fraction) const {
  std::vector<double> out(rounds_.size());
  for (std::size_t r = 0; r < rounds_.size(); ++r) {
    const RoundStat& stat = rounds_[r];
    out[r] = stat.stats.count() == 0
                 ? empty_round_value()
                 : util::trimmed_mean(stat.reservoir.samples(), trim_fraction);
  }
  return out;
}

std::vector<double> StreamingAccumulator::mean_series() const {
  std::vector<double> out(rounds_.size());
  for (std::size_t r = 0; r < rounds_.size(); ++r) {
    out[r] = rounds_[r].stats.count() == 0 ? empty_round_value()
                                           : rounds_[r].stats.mean();
  }
  return out;
}

std::vector<double> StreamingAccumulator::percentile_series(double p) const {
  RS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile in [0, 100]");
  const auto estimate = [&](const RoundStat& stat) {
    if (stat.stats.count() == 0) return empty_round_value();
    if (p == 0.0) return stat.stats.min();    // extremes are tracked
    if (p == 100.0) return stat.stats.max();  // exactly by RunningStats
    // The reservoir still holding every sample answers exactly; past
    // capacity, a live on-grid P² estimator beats the subsample.
    if (!stat.reservoir.exact() && stat.p2_live) {
      for (std::size_t i = 0; i < p2_grid_.size(); ++i)
        if (std::abs(p2_grid_[i] - p) < 1e-9)
          return stat.p2[i].estimate();
    }
    return util::percentile(stat.reservoir.samples(), p);
  };
  std::vector<double> out(rounds_.size());
  for (std::size_t r = 0; r < rounds_.size(); ++r) out[r] = estimate(rounds_[r]);
  return out;
}

std::size_t StreamingAccumulator::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const RoundStat& stat : rounds_) {
    bytes += sizeof(RoundStat);
    bytes += stat.reservoir.samples().capacity() * sizeof(double);
    bytes += stat.p2.capacity() * sizeof(util::P2Quantile);
  }
  bytes += p2_grid_.capacity() * sizeof(double);
  return bytes;
}

util::json::Value StreamingAccumulator::to_json() const {
  using util::json::Value;
  Value v = Value::object();
  v.set("backend", to_string(backend()));
  v.set("rounds", rounds_.size());
  v.set("reservoir_capacity", reservoir_capacity_);
  Value grid = Value::array();
  for (const double q : p2_grid_) grid.push_back(q);
  v.set("p2_grid", std::move(grid));
  Value stats = Value::array();
  for (const RoundStat& stat : rounds_) {
    Value s = Value::object();
    s.set("n", stat.stats.count());
    s.set("mean", stat.stats.mean());
    s.set("m2", stat.stats.m2());
    s.set("min", stat.stats.min());
    s.set("max", stat.stats.max());
    s.set("seen", stat.reservoir.seen());
    s.set("rng_draws", stat.reservoir.draws());
    Value samples = Value::array();
    for (const double x : stat.reservoir.samples()) samples.push_back(x);
    s.set("reservoir", std::move(samples));
    s.set("p2_live", stat.p2_live);
    Value p2s = Value::array();
    for (const util::P2Quantile& p2 : stat.p2) {
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

// ---------------------------------------------------------------------
// Deserialization

std::unique_ptr<RoundAccumulator> accumulator_from_json(
    const util::json::Value& value) {
  const AggBackend backend =
      parse_agg_backend(value.at("backend").as_string());
  const std::size_t rounds = value.at("rounds").as_size();
  RS_REQUIRE(rounds > 0, "accumulator JSON with zero rounds");

  if (backend == AggBackend::Exact) {
    auto acc = std::make_unique<ExactAccumulator>(rounds);
    const auto& matrix = value.at("samples").as_array();
    RS_REQUIRE(matrix.size() == rounds,
               "accumulator JSON sample matrix has " +
                   std::to_string(matrix.size()) + " rows for " +
                   std::to_string(rounds) + " rounds");
    for (std::size_t r = 0; r < rounds; ++r)
      for (const util::json::Value& x : matrix[r].as_array())
        acc->record(r, x.as_number());
    return acc;
  }

  const std::size_t reservoir_capacity =
      value.at("reservoir_capacity").as_size();
  const auto& grid = value.at("p2_grid").as_array();
  std::vector<double> p2_grid;
  p2_grid.reserve(grid.size());
  for (const util::json::Value& q : grid) p2_grid.push_back(q.as_number());
  std::unique_ptr<StreamingAccumulator> acc(new StreamingAccumulator(
      rounds, reservoir_capacity, std::move(p2_grid)));
  const auto& stats = value.at("round_stats").as_array();
  RS_REQUIRE(stats.size() == rounds,
             "accumulator JSON round_stats has " +
                 std::to_string(stats.size()) + " entries for " +
                 std::to_string(rounds) + " rounds");
  for (std::size_t r = 0; r < rounds; ++r) {
    const util::json::Value& s = stats[r];
    StreamingAccumulator::RoundStat& stat = acc->rounds_[r];
    stat.stats = util::RunningStats::from_state(
        s.at("n").as_size(), s.at("mean").as_number(), s.at("m2").as_number(),
        s.at("min").as_number(), s.at("max").as_number());
    std::vector<double> samples;
    for (const util::json::Value& x : s.at("reservoir").as_array())
      samples.push_back(x.as_number());
    stat.reservoir = util::ReservoirSample::from_state(
        reservoir_capacity, reservoir_seed_for_round(r),
        s.at("seen").as_size(), s.at("rng_draws").as_size(),
        std::move(samples));
    stat.p2_live = s.at("p2_live").as_bool();
    const auto& p2s = s.at("p2").as_array();
    RS_REQUIRE(p2s.size() == acc->p2_grid_.size(),
               "accumulator JSON P2 bank size mismatch");
    stat.p2.clear();
    for (const util::json::Value& p : p2s) {
      util::P2Quantile::State st;
      st.q = p.at("q").as_number();
      st.count = p.at("count").as_size();
      const auto& h = p.at("heights").as_array();
      const auto& pos = p.at("positions").as_array();
      const auto& des = p.at("desired").as_array();
      RS_REQUIRE(h.size() == 5 && pos.size() == 5 && des.size() == 5,
                 "accumulator JSON P2 marker arrays must have 5 entries");
      for (std::size_t i = 0; i < 5; ++i) {
        st.heights[i] = h[i].as_number();
        st.positions[i] = pos[i].as_number();
        st.desired[i] = des[i].as_number();
      }
      stat.p2.push_back(util::P2Quantile::from_state(st));
    }
  }
  return acc;
}

}  // namespace roleshare::sim
