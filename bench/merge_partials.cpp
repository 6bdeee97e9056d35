// merge_partials — folds the per-shard partials of a sharded figure sweep
// back into the figure (the reduce step of the run-range sharding
// workflow; see DESIGN.md "Accumulators & sharding").
//
//   $ ./fig3_defection --runs=8 --run-begin=0 --run-end=4 --partial-out=s0.bin
//   $ ./fig3_defection --runs=8 --run-begin=4 --run-end=8 --partial-out=s1.bin
//   $ ./merge_partials --series-out=merged.json s0.bin s1.bin
//
// The bench is rebuilt from the first shard's header through the same
// registry orchestrate uses (fig3_defection, fig6_bi_distributions,
// fig7_reward_comparison, scenario_sweep, strategic_ensemble,
// fig_longhorizon), and every shard is folded by that bench's
// ShardableBench::fold in run order — so a merge is the orchestrator's
// reduce path fed from files (bench::merge_partial_files). Shards may be
// listed in any order; before any merge the whole set must tile the
// full run range [0, runs) exactly — no overlaps, no gaps, no
// unfinished checkpoints (resume those via the bench's --partial-in
// first). Each fold refuses a shard of another kind, bench, config or
// panel layout, naming the file. Under the exact backend the merged
// series is byte-identical to a single-process --series-out; streaming
// partials merge within the documented reservoir error bound instead.
// The per-panel numbers are in the series file; the bench prints them.
//
// Shards are RSBP frames, read through sim::decode_partial_document; a
// corrupted one fails its checksum and is refused naming the file, and
// JSON shards from earlier builds still load. With --store=DIR the
// merged full-range partial is additionally published to the
// content-addressed sim::ResultStore, so a later bench run over the
// whole window is a cache hit.
//
// Exit codes: 0 on success, 1 on malformed/incompatible/missing shards.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  const std::string series_out =
      bench::arg_string(argc, argv, "series-out", "MERGED_series.json");
  const std::string store_dir = bench::arg_string(argc, argv, "store", "");
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) paths.push_back(arg);
  }

  bench::print_header("merge_partials", "fold shard partials into a figure");
  if (paths.size() < 2) {
    std::fprintf(stderr,
                 "usage: merge_partials [--series-out=FILE] [--store=DIR] "
                 "shard0 shard1 ...\n"
                 "(need at least two shard partial files)\n");
    return 1;
  }

  try {
    bench::merge_partial_files(paths, series_out, store_dir);
    std::printf("\n[series] wrote %s\n", series_out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ERROR: %s\n", e.what());
    return 1;
  }
  return 0;
}
