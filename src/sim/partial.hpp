// The universal experiment-partial layer behind the sharded / checkpointed
// execution of every figure (DESIGN.md §7).
//
// Every experiment family shares one template:
//
//   ExperimentPartial<Payload> = PartialEnvelope + Payload
//
//   PartialEnvelope  the common header every partial carries: experiment
//                    kind, spec hash (a digest of everything in the config
//                    that affects results), accumulator backend, run
//                    counts, and the shard window [run_begin, run_end)
//                    plus the resume cursor (window_end — see below).
//                    All cross-partial compatibility checks live here,
//                    and every failure names both sides.
//   Payload          the experiment-specific mergeable reduction state.
//                    Four payloads exist: DefectionPayload (Fig 3 /
//                    scenario_sweep), RewardPayload (Fig 6/7),
//                    StrategicPayload (the best-response ensemble) and
//                    LongHorizonPayload (fig_longhorizon). Each keeps its
//                    per-round accumulators and run-scalar banks in one
//                    ReductionState (below), which builds, merges, counts,
//                    writes and reads them; the payload adds how a run is
//                    recorded, its plain counters and finalize.
//
// Every family executes through one scaffold, run_partial: spec
// validation, the shard window, the envelope and the run-ordered
// reduction.
//
// Checkpoint / resume semantics: a partial covering [run_begin, run_end)
// with run_end < window_end is an *unfinished checkpoint* — the writer
// intended to execute up to window_end but stopped (crash, preemption,
// --stop-after). Resuming means executing [run_end, window_end) in
// sub-windows and merging each in; because exact-backend merges of
// contiguous windows replay a serial execution bit for bit, a
// checkpointed-then-resumed shard is bit-identical to an uninterrupted
// one. merge_partials refuses unfinished checkpoints loudly.
//
// Serialization: envelope, ScalarBank and every payload build one
// deterministic util::json value tree (to_json/from_json below); the
// bytes on disk come from a sim::PartialCodec (partial_codec.hpp). The
// framed binary columnar format (RSBP) is the only one written; JSON
// text from earlier builds is still read. Finished windows are
// additionally cacheable by content address in a sim::ResultStore keyed
// on the spec hash (result_store.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/aggregators.hpp"
#include "sim/experiment_runner.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace roleshare::sim {

struct NetworkConfig;

/// Canonical JSON echo of a NetworkConfig's result-affecting fields —
/// shared by the defection and strategic spec hashes.
util::json::Value network_spec_echo(const NetworkConfig& config);

/// Appends the reduction tail every spec echo ends with: the backend
/// ("agg") and the streaming sketch shape ("reservoir_capacity",
/// "p2_grid"). The shape is a constant of StreamingAccumulator; it stays
/// in the echo so every spec hash of an earlier build still matches.
void append_agg_echo(util::json::Value& echo, AggBackend agg);

/// FNV-1a 64-bit digest of a canonical spec-echo JSON value, as a fixed-
/// width hex string. Every experiment family hashes the full set of
/// config fields that affect its results (seeds, population, policies,
/// economics — never thread counts or shard windows), so two partials
/// merge only when they were produced by the same experiment.
std::string spec_hash_hex(const util::json::Value& spec_echo);

/// The envelope every experiment partial carries. Invariants (validated
/// on construction and deserialization):
///   run_begin < run_end <= window_end <= runs_total, rounds > 0.
struct PartialEnvelope {
  std::string kind;  // "defection" / "reward" / "strategic" / "longhorizon"
  std::string spec_hash;  // spec_hash_hex of the experiment's config echo
  AggBackend backend = AggBackend::Exact;
  std::size_t runs_total = 0;
  std::size_t rounds = 0;
  std::size_t run_begin = 0;
  /// First run NOT covered yet — the resume cursor. A complete partial
  /// has run_end == window_end.
  std::size_t run_end = 0;
  /// The window this partial intends to cover once complete.
  std::size_t window_end = 0;

  bool complete() const { return run_end == window_end; }
  std::size_t runs_executed() const { return run_end - run_begin; }

  void validate() const;
  /// Extends the intended window (checkpoint writers call this before
  /// serializing a partial that will be resumed later).
  void extend_window(std::size_t target_end);
  /// Throws std::invalid_argument naming both sides unless `next` is the
  /// same experiment (kind, spec hash, backend, shape) and starts exactly
  /// where this partial's coverage ends.
  void check_merge(const PartialEnvelope& next) const;
  /// Folds `next`'s window in after check_merge passed.
  void absorb(const PartialEnvelope& next);

  util::json::Value to_json() const;
  static PartialEnvelope from_json(const util::json::Value& value);
};

/// One shard's window as merge_partials sees it — used by
/// check_shard_tiling to validate a whole shard set before any merge.
struct ShardWindow {
  std::size_t run_begin = 0;
  std::size_t run_end = 0;
  std::size_t window_end = 0;
  std::string label;  // file path or shard name, for diagnostics
};

/// Validates that `windows` (any order) tile [0, runs_total) exactly:
/// no unfinished checkpoints, no overlaps, no gaps, full coverage.
/// Throws std::invalid_argument naming the offending shards. This is the
/// merge_partials pre-flight — merge() would also reject a broken set,
/// but only pairwise and only after work was done.
void check_shard_tiling(std::vector<ShardWindow> windows,
                        std::size_t runs_total);

// ---------------------------------------------------------------------
// ScalarBank — the run-scalar analogue of RoundAccumulator.
//
// Experiments also reduce per-run scalars (total stake, total reward,
// final cooperation) and flat sample streams (every feasible B_i). Under
// the exact backend the bank keeps the raw samples in record order, so a
// merge concatenates and `mean()` / `sum()` replay the exact arithmetic
// a single process performs — bit-identical shard merges. Under the
// streaming backend it keeps a mergeable Welford RunningStats instead:
// O(1) memory, means exact up to Chan-combine rounding.

class ScalarBank {
 public:
  explicit ScalarBank(AggBackend backend);

  AggBackend backend() const { return backend_; }
  std::size_t count() const;

  void record(double value);
  /// Appends `other` after this bank's own samples; throws
  /// std::invalid_argument naming both backends on a mismatch.
  void merge(const ScalarBank& other);

  /// Mean via a sequential Welford replay (exact) or the merged
  /// RunningStats (streaming). NaN when empty.
  double mean() const;
  /// Plain left-to-right sum (exact) or count*mean (streaming). 0 when
  /// empty — callers that divide must use their own run counts.
  double sum() const;

  /// The raw sample stream, record order. Exact backend only — throws
  /// std::logic_error under streaming (the samples were never kept).
  const std::vector<double>& samples() const;

  std::size_t memory_bytes() const;

  util::json::Value to_json() const;
  static ScalarBank from_json(const util::json::Value& value);

 private:
  AggBackend backend_;
  std::vector<double> samples_;   // exact only
  util::RunningStats stats_;      // streaming only
};

// ---------------------------------------------------------------------
// ReductionState — the one mergeable reduction state of every payload.
//
// A payload names its entries once, in a ReductionLayout: per-round
// accumulators (RoundAccumulator) and run-scalar banks (ScalarBank),
// each under the key its document writes it with. Every entry is on the
// envelope's backend. The state builds, merges, counts bytes for, writes
// and reads back every entry, accumulators first, then banks, each group
// in layout order. A read refuses any entry whose backend or round count
// disagrees with the envelope, and the error names the entry.

/// The keys of a ReductionState's entries, in document order. A state
/// keeps these views, so the keys must outlive it (string literals do).
struct ReductionLayout {
  std::vector<std::string_view> accumulators;  // per-round entries
  std::vector<std::string_view> banks;         // run-scalar entries
};

class ReductionState {
 public:
  /// Empty entries for every key of `layout` on `backend`; the
  /// accumulators hold `rounds` rounds.
  ReductionState(const ReductionLayout& layout, AggBackend backend,
                 std::size_t rounds);

  /// Reads every entry of `layout` from the members of `object`. Throws
  /// std::invalid_argument naming the entry (`context` + key) when its
  /// backend is not `backend` or, for an accumulator, its round count is
  /// not `rounds`.
  static ReductionState from_json(const ReductionLayout& layout,
                                  const util::json::Value& object,
                                  AggBackend backend, std::size_t rounds,
                                  std::string_view context = {});

  AggBackend backend() const { return backend_; }
  std::size_t rounds() const { return rounds_; }

  /// Entry i of layout.accumulators / layout.banks.
  RoundAccumulator& accumulator(std::size_t i) { return *accumulators_[i]; }
  const RoundAccumulator& accumulator(std::size_t i) const {
    return *accumulators_[i];
  }
  ScalarBank& bank(std::size_t i) { return banks_[i]; }
  const ScalarBank& bank(std::size_t i) const { return banks_[i]; }

  /// Folds `next` (same layout) in after this state's own samples.
  void merge(const ReductionState& next);

  /// Bytes held by all entries.
  std::size_t memory_bytes() const;

  /// `head` with every entry appended under its key.
  util::json::Value to_json(
      util::json::Value head = util::json::Value::object()) const;

 private:
  ReductionState(const ReductionLayout& layout, AggBackend backend,
                 std::size_t rounds,
                 std::vector<std::unique_ptr<RoundAccumulator>> accumulators,
                 std::vector<ScalarBank> banks);

  ReductionLayout layout_;
  AggBackend backend_;
  std::size_t rounds_;
  std::vector<std::unique_ptr<RoundAccumulator>> accumulators_;
  std::vector<ScalarBank> banks_;
};

// ---------------------------------------------------------------------
// The shared partial template.
//
// A Payload must provide:
//   static constexpr std::string_view kKind;
//   Payload(std::size_t rounds, AggBackend backend);  // empty entries
//   void merge(const Payload& next);              // fold after own samples
//   util::json::Value to_json() const;
//   static Payload from_json(const util::json::Value&,
//                            const PartialEnvelope&);
//   std::size_t accumulator_bytes() const;
//   <Series> finalize(const PartialEnvelope&, ...) const;
// Each delegates its entries to a ReductionState and handles only its
// plain counters itself.

template <typename Payload>
class ExperimentPartial {
 public:
  ExperimentPartial(PartialEnvelope envelope, Payload payload)
      : envelope_(std::move(envelope)), payload_(std::move(payload)) {
    RS_REQUIRE(envelope_.kind == Payload::kKind,
               "partial envelope is kind \"" + envelope_.kind +
                   "\" but this experiment expects \"" +
                   std::string(Payload::kKind) + "\"");
    envelope_.validate();
  }

  const PartialEnvelope& envelope() const { return envelope_; }
  Payload& payload() { return payload_; }
  const Payload& payload() const { return payload_; }

  std::size_t run_begin() const { return envelope_.run_begin; }
  std::size_t run_end() const { return envelope_.run_end; }
  std::size_t window_end() const { return envelope_.window_end; }
  std::size_t runs_total() const { return envelope_.runs_total; }
  std::size_t rounds() const { return envelope_.rounds; }
  AggBackend backend() const { return envelope_.backend; }
  bool complete() const { return envelope_.complete(); }

  /// Declares the window this partial is a checkpoint of (>= run_end);
  /// writers call it before serializing an unfinished checkpoint.
  void extend_window(std::size_t target_end) {
    envelope_.extend_window(target_end);
  }

  /// Folds `next` in; it must be the same experiment and start exactly
  /// where this partial's coverage ends (PartialEnvelope::check_merge).
  void merge(const ExperimentPartial& next) {
    envelope_.check_merge(next.envelope_);
    payload_.merge(next.payload_);
    envelope_.absorb(next.envelope_);
  }

  /// Reduces to the experiment's series / result type; extra arguments
  /// (e.g. the defection trim fraction) forward to the payload.
  template <typename... Args>
  auto finalize(Args&&... args) const {
    return payload_.finalize(envelope_, std::forward<Args>(args)...);
  }

  std::size_t accumulator_bytes() const {
    return payload_.accumulator_bytes();
  }

  util::json::Value to_json() const {
    util::json::Value v = util::json::Value::object();
    v.set("envelope", envelope_.to_json());
    v.set("payload", payload_.to_json());
    return v;
  }

  /// Inverts to_json; throws std::invalid_argument (naming both kinds) on
  /// a partial of a different experiment family — the cross-kind guard.
  static ExperimentPartial from_json(const util::json::Value& value) {
    PartialEnvelope envelope =
        PartialEnvelope::from_json(value.at("envelope"));
    RS_REQUIRE(envelope.kind == Payload::kKind,
               "partial is kind \"" + envelope.kind +
                   "\" but this experiment expects \"" +
                   std::string(Payload::kKind) +
                   "\" — refusing the cross-kind load");
    Payload payload = Payload::from_json(value.at("payload"), envelope);
    return ExperimentPartial(std::move(envelope), std::move(payload));
  }

 private:
  PartialEnvelope envelope_;
  Payload payload_;
};

/// Envelope for a freshly executed window [begin, end): complete by
/// construction (window_end == run_end).
inline PartialEnvelope make_envelope(std::string_view kind,
                                     std::string spec_hash,
                                     AggBackend backend,
                                     std::size_t runs_total,
                                     std::size_t rounds, std::size_t begin,
                                     std::size_t end) {
  PartialEnvelope envelope;
  envelope.kind = std::string(kind);
  envelope.spec_hash = std::move(spec_hash);
  envelope.backend = backend;
  envelope.runs_total = runs_total;
  envelope.rounds = rounds;
  envelope.run_begin = begin;
  envelope.run_end = end;
  envelope.window_end = end;
  envelope.validate();
  return envelope;
}

/// The one run scaffold of every experiment family: validates `spec`,
/// resolves its shard window, opens a complete envelope of Payload::kKind
/// on `agg` whose spec hash digests `spec_echo`, executes the window with
/// run_fn (run_and_reduce) and hands each run's result, in run-index
/// order, to record(payload, result).
template <typename Payload, typename RunFn, typename RecordFn>
ExperimentPartial<Payload> run_partial(const ExperimentSpec& spec,
                                       AggBackend agg,
                                       const util::json::Value& spec_echo,
                                       RunFn&& run_fn, RecordFn&& record) {
  validate(spec);
  const ResolvedShard shard = resolve_shard(spec);
  ExperimentPartial<Payload> partial(
      make_envelope(Payload::kKind, spec_hash_hex(spec_echo), agg, spec.runs,
                    spec.rounds, shard.begin, shard.end),
      Payload(spec.rounds, agg));
  run_and_reduce(spec, std::forward<RunFn>(run_fn),
                 [&](std::size_t, auto&& run) {
                   record(partial.payload(), std::forward<decltype(run)>(run));
                 });
  return partial;
}

}  // namespace roleshare::sim
