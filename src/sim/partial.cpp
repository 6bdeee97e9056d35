#include "sim/partial.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "sim/network.hpp"
#include "util/framed_io.hpp"

namespace roleshare::sim {

util::json::Value network_spec_echo(const NetworkConfig& config) {
  util::json::Value net = util::json::Value::object();
  net.set("node_count", config.node_count);
  net.set("seed", config.seed);
  net.set("fan_out", config.fan_out);
  net.set("stake_lo", config.stake_lo);
  net.set("stake_hi", config.stake_hi);
  net.set("defection_rate", config.defection_rate);
  net.set("faulty_rate", config.faulty_rate);
  net.set("selfish_residual", util::json::Value(config.selfish_residual));
  net.set("delay_lo_ms", config.delay_lo_ms);
  net.set("delay_hi_ms", config.delay_hi_ms);
  net.set("degrade_probability", config.synchrony.degrade_probability);
  net.set("degraded_delay_factor", config.synchrony.degraded_delay_factor);
  net.set("max_degraded_rounds", config.synchrony.max_degraded_rounds);
  return net;
}

void append_agg_echo(util::json::Value& echo, AggBackend agg) {
  echo.set("agg", to_string(agg));
  echo.set("reservoir_capacity", RoundAccumulator::kReservoirCapacity);
  util::json::Value grid = util::json::Value::array();
  for (const double q : RoundAccumulator::kP2Grid) grid.push_back(q);
  echo.set("p2_grid", std::move(grid));
}

std::string spec_hash_hex(const util::json::Value& spec_echo) {
  // FNV-1a 64 over the canonical dump: deterministic across processes
  // (insertion-ordered members, %.17g doubles), collision-resistant
  // enough for "did two shards run the same experiment". The same digest
  // (util::framed::fnv1a_64) checksums binary-frame sections and derives
  // result-store entry names, so one hash discipline covers the whole
  // partial pipeline.
  const std::uint64_t h = util::framed::fnv1a_64(spec_echo.dump());
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

void PartialEnvelope::validate() const {
  RS_REQUIRE(!kind.empty(), "partial envelope has no experiment kind");
  RS_REQUIRE(!spec_hash.empty(), "partial envelope has no spec hash");
  RS_REQUIRE(rounds > 0, "partial envelope has zero rounds");
  RS_REQUIRE(run_begin < run_end, "partial run window is empty");
  RS_REQUIRE(run_end <= window_end,
             "partial covers runs up to " + std::to_string(run_end) +
                 " past its declared window end " +
                 std::to_string(window_end));
  RS_REQUIRE(window_end <= runs_total,
             "partial window ends at " + std::to_string(window_end) +
                 " but the experiment has only " +
                 std::to_string(runs_total) + " runs");
}

void PartialEnvelope::extend_window(std::size_t target_end) {
  RS_REQUIRE(target_end >= run_end,
             "checkpoint window end " + std::to_string(target_end) +
                 " is before the covered runs, which reach " +
                 std::to_string(run_end));
  RS_REQUIRE(target_end <= runs_total,
             "checkpoint window ends at " + std::to_string(target_end) +
                 " but the experiment has only " +
                 std::to_string(runs_total) + " runs");
  window_end = std::max(window_end, target_end);
}

void PartialEnvelope::check_merge(const PartialEnvelope& next) const {
  RS_REQUIRE(next.kind == kind,
             "merging partials of different experiment kinds: this is \"" +
                 kind + "\", next is \"" + next.kind + "\"");
  RS_REQUIRE(next.spec_hash == spec_hash,
             "merging partials of different experiments: this has spec "
             "hash " + spec_hash + ", next has " + next.spec_hash);
  RS_REQUIRE(next.backend == backend,
             std::string("merging partials of different accumulator "
                         "backends: this is ") +
                 to_string(backend) + ", next is " +
                 to_string(next.backend));
  RS_REQUIRE(next.runs_total == runs_total,
             "merging partials of different experiments: this has " +
                 std::to_string(runs_total) + " total runs, next has " +
                 std::to_string(next.runs_total));
  RS_REQUIRE(next.rounds == rounds,
             "merging partials with different round counts: this has " +
                 std::to_string(rounds) + " rounds, next has " +
                 std::to_string(next.rounds));
  RS_REQUIRE(next.run_begin == run_end,
             "merging non-contiguous run windows: this ends at run " +
                 std::to_string(run_end) + ", next begins at run " +
                 std::to_string(next.run_begin));
}

void PartialEnvelope::absorb(const PartialEnvelope& next) {
  run_end = next.run_end;
  window_end = std::max(window_end, next.window_end);
}

util::json::Value PartialEnvelope::to_json() const {
  util::json::Value v = util::json::Value::object();
  v.set("kind", kind);
  v.set("spec_hash", spec_hash);
  v.set("backend", to_string(backend));
  v.set("runs_total", runs_total);
  v.set("rounds", rounds);
  v.set("run_begin", run_begin);
  v.set("run_end", run_end);
  v.set("window_end", window_end);
  return v;
}

PartialEnvelope PartialEnvelope::from_json(const util::json::Value& value) {
  PartialEnvelope envelope;
  envelope.kind = value.at("kind").as_string();
  envelope.spec_hash = value.at("spec_hash").as_string();
  envelope.backend = parse_agg_backend(value.at("backend").as_string());
  envelope.runs_total = value.at("runs_total").as_size();
  envelope.rounds = value.at("rounds").as_size();
  envelope.run_begin = value.at("run_begin").as_size();
  envelope.run_end = value.at("run_end").as_size();
  envelope.window_end = value.at("window_end").as_size();
  envelope.validate();
  return envelope;
}

void check_shard_tiling(std::vector<ShardWindow> windows,
                        std::size_t runs_total) {
  RS_REQUIRE(!windows.empty(), "no shard windows to merge");
  for (const ShardWindow& w : windows) {
    RS_REQUIRE(w.run_end == w.window_end,
               "shard " + w.label + " is an unfinished checkpoint: it "
               "covers runs [" + std::to_string(w.run_begin) + ", " +
                   std::to_string(w.run_end) + ") of its window [" +
                   std::to_string(w.run_begin) + ", " +
                   std::to_string(w.window_end) +
                   ") — resume it before merging");
  }
  std::sort(windows.begin(), windows.end(),
            [](const ShardWindow& a, const ShardWindow& b) {
              return a.run_begin != b.run_begin ? a.run_begin < b.run_begin
                                                : a.run_end < b.run_end;
            });
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const ShardWindow& prev = windows[i - 1];
    const ShardWindow& cur = windows[i];
    RS_REQUIRE(cur.run_begin >= prev.run_end,
               "shard windows overlap: " + prev.label + " covers runs [" +
                   std::to_string(prev.run_begin) + ", " +
                   std::to_string(prev.run_end) + "), " + cur.label +
                   " covers runs [" + std::to_string(cur.run_begin) + ", " +
                   std::to_string(cur.run_end) + ")");
    RS_REQUIRE(cur.run_begin <= prev.run_end,
               "shard windows leave a gap: " + prev.label +
                   " ends at run " + std::to_string(prev.run_end) + ", " +
                   cur.label + " begins at run " +
                   std::to_string(cur.run_begin));
  }
  RS_REQUIRE(
      windows.front().run_begin == 0 && windows.back().run_end == runs_total,
      "merged shards cover runs [" +
          std::to_string(windows.front().run_begin) + ", " +
          std::to_string(windows.back().run_end) + ") of " +
          std::to_string(runs_total) + " — the shard set is incomplete");
}

// ---------------------------------------------------------------------
// ScalarBank

ScalarBank::ScalarBank(AggBackend backend) : backend_(backend) {}

std::size_t ScalarBank::count() const {
  return backend_ == AggBackend::Exact ? samples_.size() : stats_.count();
}

void ScalarBank::record(double value) {
  if (backend_ == AggBackend::Exact) {
    samples_.push_back(value);
  } else {
    stats_.add(value);
  }
}

void ScalarBank::merge(const ScalarBank& other) {
  RS_REQUIRE(other.backend_ == backend_,
             std::string("merging scalar banks of different backends: "
                         "this is ") +
                 to_string(backend_) + ", other is " +
                 to_string(other.backend_));
  if (backend_ == AggBackend::Exact) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  } else if (other.stats_.count() > 0) {
    if (stats_.count() == 0) {
      stats_ = other.stats_;
    } else {
      stats_.merge(other.stats_);
    }
  }
}

double ScalarBank::mean() const {
  if (count() == 0) return std::numeric_limits<double>::quiet_NaN();
  if (backend_ == AggBackend::Streaming) return stats_.mean();
  // Sequential Welford replay: bit-identical to feeding the samples into
  // a RunningStats one by one, which is what the single-process
  // experiments historically did.
  util::RunningStats replay;
  for (const double x : samples_) replay.add(x);
  return replay.mean();
}

double ScalarBank::sum() const {
  if (backend_ == AggBackend::Streaming)
    return stats_.mean() * static_cast<double>(stats_.count());
  double total = 0.0;
  for (const double x : samples_) total += x;
  return total;
}

const std::vector<double>& ScalarBank::samples() const {
  if (backend_ != AggBackend::Exact)
    throw std::logic_error(
        "ScalarBank::samples(): the streaming backend does not keep raw "
        "samples");
  return samples_;
}

std::size_t ScalarBank::memory_bytes() const {
  return sizeof(*this) + samples_.capacity() * sizeof(double);
}

util::json::Value ScalarBank::to_json() const {
  util::json::Value v = util::json::Value::object();
  v.set("backend", to_string(backend_));
  if (backend_ == AggBackend::Exact) {
    util::json::Value xs = util::json::Value::array();
    for (const double x : samples_) xs.push_back(x);
    v.set("samples", std::move(xs));
  } else {
    v.set("n", stats_.count());
    v.set("mean", stats_.mean());
    v.set("m2", stats_.m2());
    v.set("min", stats_.min());
    v.set("max", stats_.max());
  }
  return v;
}

ScalarBank ScalarBank::from_json(const util::json::Value& value) {
  ScalarBank bank(parse_agg_backend(value.at("backend").as_string()));
  if (bank.backend_ == AggBackend::Exact) {
    for (const util::json::Value& x : value.at("samples").as_array())
      bank.samples_.push_back(x.as_number());
  } else {
    bank.stats_ = util::RunningStats::from_state(
        value.at("n").as_size(), value.at("mean").as_number(),
        value.at("m2").as_number(), value.at("min").as_number(),
        value.at("max").as_number());
  }
  return bank;
}

// ---------------------------------------------------------------------
// ReductionState

ReductionState::ReductionState(const ReductionLayout& layout,
                               AggBackend backend, std::size_t rounds)
    : layout_(layout), backend_(backend), rounds_(rounds) {
  for (std::size_t i = 0; i < layout.accumulators.size(); ++i)
    accumulators_.emplace_back(backend, rounds);
  banks_.assign(layout.banks.size(), ScalarBank(backend));
}

ReductionState ReductionState::from_json(const ReductionLayout& layout,
                                         const util::json::Value& object,
                                         AggBackend backend,
                                         std::size_t rounds,
                                         std::string_view context) {
  const auto entry = [&](std::string_view key) {
    return "partial entry \"" + std::string(context) + std::string(key) +
           "\"";
  };
  const auto check_backend = [&](std::string_view key, AggBackend found) {
    RS_REQUIRE(found == backend, entry(key) + " is " + to_string(found) +
                                     " but its envelope is " +
                                     to_string(backend));
  };
  // Built without entries, then read entry by entry in layout order.
  ReductionState state(ReductionLayout{}, backend, rounds);
  state.layout_ = layout;
  for (const std::string_view key : layout.accumulators) {
    const RoundAccumulator& acc = state.accumulators_.emplace_back(
        RoundAccumulator::from_json(object.at(key), entry(key)));
    check_backend(key, acc.backend());
    RS_REQUIRE(acc.rounds() == rounds,
               entry(key) + " has " + std::to_string(acc.rounds()) +
                   " rounds but its envelope has " + std::to_string(rounds));
  }
  for (const std::string_view key : layout.banks) {
    const ScalarBank& bank =
        state.banks_.emplace_back(ScalarBank::from_json(object.at(key)));
    check_backend(key, bank.backend());
  }
  return state;
}

void ReductionState::merge(const ReductionState& next) {
  for (std::size_t i = 0; i < accumulators_.size(); ++i)
    accumulators_[i].merge(next.accumulators_[i]);
  for (std::size_t i = 0; i < banks_.size(); ++i)
    banks_[i].merge(next.banks_[i]);
}

std::size_t ReductionState::memory_bytes() const {
  std::size_t bytes = 0;
  for (const RoundAccumulator& acc : accumulators_)
    bytes += acc.memory_bytes();
  for (const ScalarBank& bank : banks_) bytes += bank.memory_bytes();
  return bytes;
}

util::json::Value ReductionState::to_json(util::json::Value head) const {
  for (std::size_t i = 0; i < accumulators_.size(); ++i)
    head.set(std::string(layout_.accumulators[i]),
             accumulators_[i].to_json());
  for (std::size_t i = 0; i < banks_.size(); ++i)
    head.set(std::string(layout_.banks[i]), banks_[i].to_json());
  return head;
}

}  // namespace roleshare::sim
