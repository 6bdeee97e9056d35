// Shared pieces of the sharded-figure workflow: the --agg /
// --run-begin/--run-end / --partial-out / --partial-in /
// --checkpoint-every knob vocabulary, the universal shard-partial
// document format, the checkpointed shard driver every figure bench
// runs its panels through, and the deterministic "series snapshot" JSON
// that the benches and the merge_partials tool both emit — the files
// the CI shard-smoke jobs diff byte-for-byte between a single-process
// run and an N-shard merge (and between a resumed and an uninterrupted
// shard).
//
// Document shapes (all via util::json, so dumps are deterministic):
//
//   partial file   {"kind": ..., "bench": ..., config echo...,
//                   "run_begin", "run_end", "window_end",
//                   "panels": [{panel id fields...,
//                               "partial": ExperimentPartial JSON}]}
//   series file    {"kind": ..., "bench": ..., config echo...,
//                   "run_begin", "run_end", "window_end",
//                   "panels": [{panel id fields..., "series": {...}}]}
//
// Partial files are written as RSBP frames (kPartialFormat, DESIGN.md
// §9): checksummed, so a corrupted shard or checkpoint is refused naming
// the file instead of merged as other numbers. Reads auto-detect from
// the leading bytes, so JSON files from earlier builds still resume and
// merge; a resumed JSON chain is rewritten whole as RSBP. Series files
// stay JSON text (they are the byte-diff artifact). Every partial and
// series file is replaced through a temp file and a rename
// (write_text_file), so a failed rewrite keeps the previous file — the
// only resume state under --partial-in=X --partial-out=X. With
// --store=DIR a finished window is also published to (and served from)
// a content-addressed sim::ResultStore keyed by spec hash + backend +
// window — re-running an identical (config, window) becomes a cache
// hit, not a recompute.
//
// A partial file with run_end < window_end is an *unfinished
// checkpoint*: the writer intended to execute up to window_end but
// stopped (crash, --stop-after). Feed it back through --partial-in to
// resume; merge_partials refuses it loudly.
//
// The series snapshot deliberately excludes volatile fields (wall time,
// git SHA, accumulator byte counts): everything in it is a pure function
// of (config, seeds), which is what makes the byte-diff meaningful.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/defection_experiment.hpp"
#include "sim/longhorizon.hpp"
#include "sim/partial.hpp"
#include "sim/partial_codec.hpp"
#include "sim/result_store.hpp"
#include "sim/reward_experiment.hpp"
#include "sim/strategic_loop.hpp"
#include "util/json.hpp"

namespace roleshare::bench {

/// --agg={exact,streaming}; defaults to exact, fails loudly on anything
/// else.
inline sim::AggBackend arg_agg(int argc, char** argv) {
  return sim::parse_agg_backend(arg_string(argc, argv, "agg", "exact"));
}

/// The encoding of every partial file, checkpoint, spool and store entry
/// the shard workflow writes.
inline constexpr sim::PartialFormat kPartialFormat =
    sim::PartialFormat::Binary;

/// --run-begin=B / --run-end=E select the global run window [B, E) this
/// process executes; either side defaults (to 0 / `runs`) when only the
/// other is given, and the whole range when neither is. A negative side
/// is refused naming its flag. An explicitly empty window is rejected
/// too: RunShard{0, 0} is the whole-range sentinel, so mapping a
/// script's `--run-end=0` onto it would silently execute every run
/// instead of failing.
inline sim::RunShard arg_run_shard(int argc, char** argv, std::size_t runs) {
  const std::optional<std::size_t> begin =
      arg_optional_size(argc, argv, "run-begin");
  const std::optional<std::size_t> end =
      arg_optional_size(argc, argv, "run-end");
  if (!begin && !end) return {};
  sim::RunShard shard;
  shard.begin = begin.value_or(0);
  shard.end = end.value_or(runs);
  if (shard.begin >= shard.end) {
    throw std::invalid_argument(
        "--run-begin/--run-end window [" + std::to_string(shard.begin) +
        ", " + std::to_string(shard.end) + ") is empty");
  }
  return shard;
}

/// The full shard-worker knob set of a figure bench. --checkpoint-every,
/// --stop-after and --partial-in only make sense when the executed state
/// is persisted, so they require --partial-out.
struct ShardKnobs {
  std::size_t runs = 0;              // the experiment's total run count
  sim::RunShard shard{};             // CLI window (whole range by default)
  std::size_t checkpoint_every = 0;  // rewrite the partial every N runs
  std::size_t stop_after = 0;        // stop (checkpointing) after N runs
  std::string partial_in;            // resume from this checkpoint file
  std::string partial_out;           // shard-worker mode when non-empty
  /// Encoding of everything this process writes (reads auto-detect).
  /// No flag sets it; only tests (writing an earlier build's JSON) and
  /// the benchmark do.
  sim::PartialFormat format = kPartialFormat;
  /// Content-addressed result store directory; empty = no store.
  std::string store_dir;
  /// Invoked with the resume cursor after every mid-window checkpoint
  /// write (NOT after the final complete document) — the orchestrator
  /// worker's PROGRESS hook. Null = no observer.
  std::function<void(std::size_t)> on_checkpoint;
};

inline ShardKnobs arg_shard_knobs(int argc, char** argv, std::size_t runs) {
  ShardKnobs knobs;
  knobs.runs = runs;
  knobs.shard = arg_run_shard(argc, argv, runs);
  knobs.checkpoint_every = arg_size(argc, argv, "checkpoint-every", 0);
  knobs.stop_after = arg_size(argc, argv, "stop-after", 0);
  knobs.partial_in = arg_string(argc, argv, "partial-in", "");
  knobs.partial_out = arg_string(argc, argv, "partial-out", "");
  knobs.store_dir = arg_string(argc, argv, "store", "");
  if (knobs.partial_out.empty() &&
      (knobs.checkpoint_every > 0 || knobs.stop_after > 0 ||
       !knobs.partial_in.empty())) {
    throw std::invalid_argument(
        "--checkpoint-every / --stop-after / --partial-in require "
        "--partial-out (the executed state must be persisted somewhere)");
  }
  return knobs;
}

/// The config-echo header both document kinds share. `kind` is the
/// experiment family ("defection" / "reward" / "strategic" /
/// "longhorizon"); `echo` is the bench's own config summary and must be
/// a pure function of the knobs (no wall time, no git SHA). Every field
/// is named after the flag that sets it ("nodes" is --nodes, with an
/// underscore for each dash), which is how merge_partials rebuilds the
/// bench from a shard's header.
inline util::json::Value shard_document_header(
    const std::string& kind, const std::string& bench,
    std::vector<std::pair<std::string, util::json::Value>> echo) {
  util::json::Value v = util::json::Value::object();
  v.set("kind", kind);
  v.set("bench", bench);
  for (auto& [key, value] : echo) v.set(key, std::move(value));
  return v;
}

/// Builds the partial document for `partials` covering runs
/// [run_begin, run_end) of window [run_begin, window_end).
template <typename PartialT>
util::json::Value partial_document(
    const util::json::Value& header, std::size_t run_begin,
    std::size_t run_end, std::size_t window_end,
    const std::vector<PartialT>& partials,
    const std::function<util::json::Value(std::size_t)>& panel_meta) {
  util::json::Value doc = header;
  doc.set("run_begin", run_begin);
  doc.set("run_end", run_end);
  doc.set("window_end", window_end);
  util::json::Value panels = util::json::Value::array();
  for (std::size_t i = 0; i < partials.size(); ++i) {
    util::json::Value panel = panel_meta(i);
    panel.set("partial", partials[i].to_json());
    panels.push_back(std::move(panel));
  }
  doc.set("panels", std::move(panels));
  return doc;
}

/// The result-store key of one (header, window): the spec hash digests
/// the full config echo, so two runs share an entry only when every
/// result-affecting knob agrees (the header-echo re-check on load is the
/// digest-collision guard).
inline sim::ResultKey store_key_of(const util::json::Value& header,
                                   std::size_t run_begin,
                                   std::size_t run_end) {
  sim::ResultKey key;
  key.kind = header.at("kind").as_string();
  key.bench = header.at("bench").as_string();
  key.spec_hash = sim::spec_hash_hex(header);
  key.backend = sim::parse_agg_backend(header.at("agg").as_string());
  key.run_begin = run_begin;
  key.run_end = run_end;
  return key;
}

/// Writes a series document: same header/window layout, panels carry
/// "series" objects instead of partials.
inline void write_series_document(const std::string& path,
                                  const util::json::Value& header,
                                  std::size_t run_begin, std::size_t run_end,
                                  util::json::Value panels) {
  util::json::Value doc = header;
  doc.set("run_begin", run_begin);
  doc.set("run_end", run_end);
  doc.set("window_end", run_end);
  doc.set("panels", std::move(panels));
  write_text_file(path, doc.dump() + "\n");
}

/// What a checkpointed shard execution produced. `complete` is false only
/// when --stop-after cut the window short (the checkpoint was written).
template <typename PartialT>
struct ShardExecution {
  std::vector<PartialT> partials;
  std::size_t window_begin = 0;
  std::size_t cursor = 0;      // first run NOT executed
  std::size_t window_end = 0;
  /// Bytes of the last partial document persisted (file or store) —
  /// the partial_bytes field of BENCH_*_shard.json.
  std::size_t partial_bytes = 0;
  /// True when the window was served from the result store instead of
  /// being recomputed.
  bool store_hit = false;
  /// Runs actually executed by THIS invocation (resumed or cached runs
  /// excluded) — the orchestrator's kill-budget accounting unit.
  std::size_t executed = 0;
  bool complete() const { return cursor == window_end; }
};

/// Document members outside the config echo: the window and the panels.
inline bool is_window_key(const std::string& key) {
  return key == "run_begin" || key == "run_end" || key == "window_end" ||
         key == "panels";
}

/// Validates a decoded partial document against this invocation's header
/// and panel layout, then adopts its partials and window into `exec`.
/// `origin` names the byte source ("--partial-in file X", "store entry
/// Y", a shard path) in every refusal. Shared by resume, store hits, the
/// orchestrator fold and merge_partials.
template <typename PartialT>
void load_partial_document(
    const util::json::Value& doc, const std::string& origin,
    const util::json::Value& header,
    const std::function<util::json::Value(std::size_t)>& panel_meta,
    std::size_t panel_count, ShardExecution<PartialT>& exec) {
  const std::string& doc_kind = doc.at("kind").as_string();
  const std::string& kind = header.at("kind").as_string();
  if (doc_kind != kind) {
    throw std::invalid_argument(origin + " is kind \"" + doc_kind +
                                "\" but this bench produces \"" + kind +
                                "\" partials");
  }
  // The document's config echo must match this invocation BEFORE any run
  // executes or any cached result is adopted — resuming (or serving) a
  // 10k-run shard under the wrong knobs must not burn or fake a
  // sub-window of compute. The comparison is symmetric: a field the
  // document carries but this bench does not echo (another bench's
  // knob, or a knob set away from its default) is as foreign as a
  // differing value. (The envelope's spec hash re-checks on merge.)
  for (const auto& [key, value] : header.as_object()) {
    const util::json::Value* other = doc.find(key);
    if (other == nullptr || other->dump() != value.dump()) {
      throw std::invalid_argument(
          origin + " was produced under a different config: \"" + key +
          "\" is " + (other ? other->dump() : std::string("absent")) +
          " there, this invocation has " + value.dump());
    }
  }
  for (const auto& [key, value] : doc.as_object()) {
    if (!is_window_key(key) && header.find(key) == nullptr) {
      throw std::invalid_argument(
          origin + " was produced under a different config: \"" + key +
          "\" is " + value.dump() + " there, this invocation has none");
    }
  }
  const auto& panels = doc.at("panels").as_array();
  if (panels.size() != panel_count) {
    throw std::invalid_argument(origin + " has " +
                                std::to_string(panels.size()) +
                                " panels, this bench produces " +
                                std::to_string(panel_count));
  }
  exec.partials.clear();
  for (std::size_t i = 0; i < panels.size(); ++i) {
    util::json::Value id = util::json::Value::object();
    for (const auto& [key, value] : panels[i].as_object())
      if (key != "partial") id.set(key, value);
    const std::string expected = panel_meta(i).dump();
    if (id.dump() != expected) {
      throw std::invalid_argument(origin + " panel " + std::to_string(i) +
                                  " is " + id.dump() + ", this bench's is " +
                                  expected);
    }
    try {
      exec.partials.push_back(PartialT::from_json(panels[i].at("partial")));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(origin + " panel " + std::to_string(i) +
                                  ": " + e.what());
    }
  }
  exec.window_begin = doc.at("run_begin").as_size();
  exec.cursor = doc.at("run_end").as_size();
  exec.window_end = doc.at("window_end").as_size();
}

/// Decodes `bytes` (either codec) as the FINISHED window [begin, end) —
/// the one check a store hit, the orchestrator fold and merge_partials
/// share. Throws naming `origin` on an unfinished checkpoint or another
/// window.
template <typename PartialT>
ShardExecution<PartialT> load_finished_window(
    const std::string& bytes, const std::string& origin,
    const util::json::Value& header,
    const std::function<util::json::Value(std::size_t)>& panel_meta,
    std::size_t panel_count, std::size_t begin, std::size_t end) {
  ShardExecution<PartialT> exec;
  load_partial_document(sim::decode_partial_document(bytes, origin), origin,
                        header, panel_meta, panel_count, exec);
  if (!exec.complete() || exec.window_begin != begin ||
      exec.window_end != end) {
    throw std::invalid_argument(
        origin + " covers runs [" + std::to_string(exec.window_begin) +
        ", " + std::to_string(exec.cursor) + ") of window [" +
        std::to_string(exec.window_begin) + ", " +
        std::to_string(exec.window_end) + ") — expected finished window [" +
        std::to_string(begin) + ", " + std::to_string(end) + ")");
  }
  return exec;
}

/// The checkpointed shard driver every figure bench runs its panels
/// through. Executes the CLI window (or resumes the --partial-in
/// checkpoint) in sub-windows of --checkpoint-every runs, merging each
/// sub-window's partials in window order — which is why a
/// checkpointed-then-resumed shard is bit-identical (exact backend) to
/// an uninterrupted one — and rewriting --partial-out at every
/// checkpoint with the resume cursor in the envelope.
///
///   run_panel(panel_index, sub_window) -> PartialT executes one panel's
///   runs for one sub-window; panel_meta(panel_index) -> the panel's id
///   fields for the document.
template <typename PartialT, typename RunPanelFn>
ShardExecution<PartialT> run_sharded_panels(
    const ShardKnobs& knobs, std::size_t panel_count,
    const util::json::Value& header,
    const std::function<util::json::Value(std::size_t)>& panel_meta,
    RunPanelFn&& run_panel) {
  ShardExecution<PartialT> exec;
  exec.window_begin = knobs.shard.whole() ? 0 : knobs.shard.begin;
  exec.window_end = knobs.shard.whole() ? knobs.runs : knobs.shard.end;
  exec.cursor = exec.window_begin;
  // The executed state as knobs.format bytes; its size is the
  // partial_bytes field of BENCH_*_shard.json.
  const auto encode = [&]() {
    std::string bytes = sim::partial_codec(knobs.format)
                            .encode(partial_document(
                                header, exec.window_begin, exec.cursor,
                                exec.window_end, exec.partials, panel_meta));
    exec.partial_bytes = bytes.size();
    return bytes;
  };

  if (!knobs.partial_in.empty()) {
    const util::json::Value doc = sim::decode_partial_document(
        util::read_file(knobs.partial_in), knobs.partial_in);
    load_partial_document(doc, "--partial-in file " + knobs.partial_in,
                          header, panel_meta, panel_count, exec);
    // The window comes from the file; an explicit CLI window that
    // disagrees must not be silently overridden.
    if (!knobs.shard.whole() && (knobs.shard.begin != exec.window_begin ||
                                 knobs.shard.end != exec.window_end)) {
      throw std::invalid_argument(
          "--run-begin/--run-end window [" +
          std::to_string(knobs.shard.begin) + ", " +
          std::to_string(knobs.shard.end) + ") conflicts with " +
          knobs.partial_in + ", which covers window [" +
          std::to_string(exec.window_begin) + ", " +
          std::to_string(exec.window_end) +
          ") — drop the flags or fix the file");
    }
    std::printf("[resume] %s: runs [%zu, %zu) of window [%zu, %zu) already "
                "executed\n",
                knobs.partial_in.c_str(), exec.window_begin, exec.cursor,
                exec.window_begin, exec.window_end);
  } else if (!knobs.store_dir.empty()) {
    // A finished (config, window) may already be published — serve it
    // instead of recomputing. Every failure mode of an entry (corrupt
    // frame, foreign config behind a colliding digest, incomplete
    // window) downgrades to a miss with a note, never an error.
    const sim::ResultStore store(knobs.store_dir);
    const sim::ResultKey key =
        store_key_of(header, exec.window_begin, exec.window_end);
    if (const auto cached = store.lookup(key)) {
      try {
        exec = load_finished_window<PartialT>(
            *cached, "store entry " + store.entry_path(key), header,
            panel_meta, panel_count, exec.window_begin, exec.window_end);
        exec.store_hit = true;
        std::printf("[store] cache hit: %s — runs [%zu, %zu) served "
                    "without recomputation\n",
                    key.id().c_str(), exec.window_begin, exec.window_end);
      } catch (const std::exception& e) {
        std::printf("[store] ignoring unusable entry: %s\n", e.what());
      }
    }
  }

  while (exec.cursor < exec.window_end) {
    std::size_t step = exec.window_end - exec.cursor;
    if (knobs.checkpoint_every > 0)
      step = std::min(step, knobs.checkpoint_every);
    if (knobs.stop_after > 0)
      step = std::min(step, knobs.stop_after - exec.executed);
    const sim::RunShard sub{exec.cursor, exec.cursor + step};
    for (std::size_t i = 0; i < panel_count; ++i) {
      PartialT part = run_panel(i, sub);
      if (exec.partials.size() <= i) {
        exec.partials.push_back(std::move(part));
      } else {
        // Spec-hash / backend / contiguity checks live in the envelope:
        // resuming under a different config fails loudly here.
        exec.partials[i].merge(part);
      }
    }
    exec.cursor += step;
    exec.executed += step;
    for (PartialT& partial : exec.partials)
      partial.extend_window(exec.window_end);
    const bool hit_stop =
        knobs.stop_after > 0 && exec.executed >= knobs.stop_after;
    if (!knobs.partial_out.empty() && !exec.complete() &&
        (hit_stop || knobs.checkpoint_every > 0)) {
      write_text_file(knobs.partial_out, encode());
      std::printf("[checkpoint] wrote %s at run cursor %zu of window "
                  "[%zu, %zu)\n",
                  knobs.partial_out.c_str(), exec.cursor, exec.window_begin,
                  exec.window_end);
      if (knobs.on_checkpoint) knobs.on_checkpoint(exec.cursor);
    }
    if (hit_stop && !exec.complete()) {
      std::printf("[checkpoint] stopping after %zu runs; resume with "
                  "--partial-in=%s\n",
                  exec.executed, knobs.partial_out.c_str());
      return exec;
    }
  }

  // The window is complete (freshly executed, resumed to completion, or
  // a cache hit). Encode the finished document ONCE: --partial-out gets
  // it as a file, --store publishes it content-addressed. A cache hit is
  // re-encoded rather than copied, so the bytes written are identical
  // whether or not the store served the run (and an entry from an
  // earlier build comes out as RSBP).
  if (!knobs.partial_out.empty() || !knobs.store_dir.empty()) {
    const std::string bytes = encode();
    if (!knobs.partial_out.empty()) write_text_file(knobs.partial_out, bytes);
    if (!knobs.store_dir.empty() && !exec.store_hit) {
      sim::ResultStore store(knobs.store_dir);
      const std::string path = store.insert(
          store_key_of(header, exec.window_begin, exec.window_end), bytes);
      std::printf("[store] published runs [%zu, %zu) to %s (%zu bytes)\n",
                  exec.window_begin, exec.window_end, path.c_str(),
                  bytes.size());
    }
  }
  return exec;
}

/// The shard-worker epilogue every figure bench shares: true means the
/// invocation is done (either --stop-after checkpointed and stopped, or
/// the shard partial is on disk) and the caller should exit 0 without
/// producing a figure. Emits BENCH_<bench>_shard.json (partial byte
/// size, cache-hit flag, wall time) so shard sizes land in the perf
/// trajectory.
template <typename PartialT>
bool shard_worker_done(const ShardExecution<PartialT>& exec,
                       const ShardKnobs& knobs,
                       const util::json::Value& header, double wall_ms) {
  const bool done = !exec.complete() || !knobs.partial_out.empty();
  if (!done) return false;
  if (exec.complete()) {
    std::printf("\n[shard] wrote partial for runs [%zu, %zu) of %zu to %s "
                "(%zu bytes%s)\n",
                exec.window_begin, exec.cursor, knobs.runs,
                knobs.partial_out.c_str(), exec.partial_bytes,
                exec.store_hit ? ", store hit" : "");
  }
  emit_json(header.at("bench").as_string() + "_shard",
            {{"run_begin", static_cast<double>(exec.window_begin)},
             {"run_end", static_cast<double>(exec.cursor)},
             {"window_end", static_cast<double>(exec.window_end)},
             {"partial_bytes", static_cast<double>(exec.partial_bytes)},
             {"store_hit", exec.store_hit ? 1.0 : 0.0},
             {"wall_ms", wall_ms}});
  return true;
}

// ---------------------------------------------------------------------
// Deterministic per-panel series snapshots (no volatile fields).

inline util::json::Value defection_series_json(
    const sim::DefectionSeries& series) {
  using util::json::Value;
  Value v = Value::object();
  Value fin = Value::array(), tent = Value::array(), none = Value::array();
  for (const sim::RoundAggregate& agg : series.rounds) {
    fin.push_back(agg.final_pct);
    tent.push_back(agg.tentative_pct);
    none.push_back(agg.none_pct);
  }
  v.set("final", std::move(fin));
  v.set("tentative", std::move(tent));
  v.set("none", std::move(none));
  Value live = Value::array(), coop = Value::array();
  for (const double x : series.live_series) live.push_back(x);
  for (const double x : series.cooperation_series) coop.push_back(x);
  v.set("live", std::move(live));
  v.set("coop", std::move(coop));
  v.set("runs_with_progress", series.runs_with_progress);
  v.set("min_live", series.min_live);
  v.set("max_live", series.max_live);
  return v;
}

inline util::json::Value reward_series_json(
    const sim::RewardExperimentResult& result) {
  using util::json::Value;
  Value v = Value::object();
  Value per_round = Value::array(), foundation = Value::array();
  for (const double x : result.bi_per_round_mean) per_round.push_back(x);
  for (const double x : result.foundation_per_round) foundation.push_back(x);
  v.set("bi_per_round_mean", std::move(per_round));
  v.set("foundation_per_round", std::move(foundation));
  v.set("mean_bi", result.mean_bi);
  v.set("mean_total_stake", result.mean_total_stake);
  v.set("mean_alpha", result.mean_alpha);
  v.set("mean_beta", result.mean_beta);
  v.set("infeasible_rounds", result.infeasible_rounds);
  return v;
}

inline util::json::Value strategic_series_json(
    const sim::StrategicEnsembleResult& result) {
  using util::json::Value;
  Value v = Value::object();
  Value coop = Value::array(), fin = Value::array(), reward = Value::array();
  for (const double x : result.cooperation_series) coop.push_back(x);
  for (const double x : result.final_series) fin.push_back(x);
  for (const double x : result.reward_series) reward.push_back(x);
  v.set("cooperation", std::move(coop));
  v.set("final", std::move(fin));
  v.set("reward", std::move(reward));
  v.set("mean_total_reward_algos", result.mean_total_reward_algos);
  v.set("mean_final_cooperation", result.mean_final_cooperation);
  return v;
}

inline util::json::Value longhorizon_series_json(
    const sim::LongHorizonResult& result) {
  using util::json::Value;
  Value v = Value::object();
  Value gini = Value::array(), top = Value::array(), corr = Value::array(),
        fin = Value::array();
  for (const double x : result.gini_per_round) gini.push_back(x);
  for (const double x : result.top_share_per_round) top.push_back(x);
  for (const double x : result.defector_corr_per_round) corr.push_back(x);
  for (const double x : result.final_pct_per_round) fin.push_back(x);
  v.set("gini", std::move(gini));
  v.set("top_share", std::move(top));
  v.set("defector_corr", std::move(corr));
  v.set("final_pct", std::move(fin));
  v.set("mean_end_gini", result.mean_end_gini);
  v.set("mean_end_top_share", result.mean_end_top_share);
  v.set("mean_end_defector_corr", result.mean_end_defector_corr);
  v.set("mean_paid_algos", result.mean_paid_algos);
  return v;
}

/// The fig3-style per-round outcome table.
inline void print_defection_table(const sim::DefectionSeries& series) {
  std::printf("%6s %10s %12s %10s\n", "round", "final%", "tentative%",
              "none%");
  for (std::size_t r = 0; r < series.rounds.size(); ++r) {
    const sim::RoundAggregate& agg = series.rounds[r];
    std::printf("%6zu %10.1f %12.1f %10.1f\n", r + 1, agg.final_pct,
                agg.tentative_pct, agg.none_pct);
  }
}

inline double mean_final_pct(const sim::DefectionSeries& series) {
  double mean_final = 0;
  for (const sim::RoundAggregate& agg : series.rounds)
    mean_final += agg.final_pct;
  return series.rounds.empty()
             ? 0.0
             : mean_final / static_cast<double>(series.rounds.size());
}

}  // namespace roleshare::bench
