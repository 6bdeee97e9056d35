// Content-addressed on-disk result store for finished shard partials
// (DESIGN.md §9) — the memoization layer that turns retries and
// incremental sweeps into cache hits.
//
// A finished partial document is a pure function of (experiment config,
// shard window, accumulator backend): the config is already digested
// into the FNV spec hash every envelope carries, so
//
//   key  = kind / bench / spec_hash / agg backend / [run_begin, run_end)
//
// addresses the result content the way a Nix store path addresses a
// build output. The store is a flat directory of entry files named by
// the FNV-1a 64 digest of the canonical key id; each entry is a framed
// file (util/framed_io, magic "RSRS") carrying the full key id — the
// digest-collision guard — and the payload bytes verbatim, both
// checksummed.
//
// Durability discipline (NixOS/nix libstore):
//   - insert() writes a unique temp file in the store directory and
//     renames it into place — publication is atomic, readers never see
//     a half-written entry, and two writers racing on one key both
//     succeed (last rename wins; both wrote identical content, because
//     the key addresses it).
//   - lookup() re-validates everything (magic, version, checksums, key
//     id); ANY violation is a miss, never an error — a corrupt cache
//     must cost a recompute, not a failed sweep. gc() deletes what
//     lookup would reject, and can evict oldest-first to a byte budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/aggregators.hpp"

namespace roleshare::sim {

/// The cache key of one finished shard window. `kind` is the experiment
/// family ("defection"/"reward"/"strategic"), `bench` the producing
/// driver (two benches of one family — fig6 vs fig7 — never share
/// entries even if their spec hashes collided), `spec_hash` the FNV
/// digest of the full config echo.
struct ResultKey {
  std::string kind;
  std::string bench;
  std::string spec_hash;
  AggBackend backend = AggBackend::Exact;
  std::size_t run_begin = 0;
  std::size_t run_end = 0;

  /// Canonical id, e.g. "defection/fig3_defection/91ab…/exact/[0,50)".
  /// The store file name is the FNV-1a 64 hex of this string; the id
  /// itself is stored inside the entry as the collision guard.
  std::string id() const;
  /// "<fnv16hex>.rsr" — the entry file name under the store root.
  std::string entry_name() const;
};

struct GcStats {
  std::size_t entries_kept = 0;
  std::size_t corrupt_removed = 0;
  std::size_t evicted = 0;
  std::uint64_t bytes_kept = 0;
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error when the path exists but is not a directory or
  /// cannot be created.
  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// The payload bytes published under `key`, byte-identical to what
  /// insert() received — or nullopt on a miss. Corrupt or mismatched
  /// entries (bad magic/version/checksum, foreign key id) are misses.
  std::optional<std::string> lookup(const ResultKey& key) const;

  bool contains(const ResultKey& key) const { return lookup(key).has_value(); }

  /// Publishes `payload` under `key` atomically (unique temp file +
  /// rename into place); returns the final entry path. Concurrent
  /// inserts on the same key all succeed. Throws std::runtime_error on
  /// I/O failure.
  std::string insert(const ResultKey& key, std::string_view payload);

  /// Where `key`'s entry lives (whether or not it exists yet).
  std::string entry_path(const ResultKey& key) const;

  /// Deletes every entry lookup() would reject, then — when
  /// `max_total_bytes` > 0 — evicts valid entries oldest-first until the
  /// store fits the budget.
  GcStats gc(std::uint64_t max_total_bytes = 0);

 private:
  std::string root_;
};

}  // namespace roleshare::sim
