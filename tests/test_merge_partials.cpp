// The merge_partials reduce step (bench::merge_partial_files) and the
// header echo it rebuilds benches from: a shard header names every knob
// that produced it, the registry rebuilds the same bench from it, shard
// sets fold to the single-process series bytes, and every foreign or
// corrupted shard is refused naming its file.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/result_store.hpp"
#include "util/json.hpp"

namespace roleshare::bench {
namespace {

namespace fs = std::filesystem;

/// The registry bench `name` under `flags`, as its main would parse them.
ShardableBench bench_of(const std::string& name,
                        std::vector<std::string> flags) {
  flags.insert(flags.begin(), "test_merge_partials");
  std::vector<char*> argv;
  for (std::string& flag : flags) argv.push_back(flag.data());
  return make_shardable_bench(name, static_cast<int>(argv.size()),
                              argv.data());
}

const std::vector<std::string> kFig3 = {"--nodes=60", "--runs=6",
                                        "--rounds=3"};

/// A fresh directory per test (ctest runs tests as parallel processes).
std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("merge_" + std::string(info->name()) + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Writes window [begin, end) of `bench` to `path` — what
/// `<bench> --run-begin --run-end --partial-out` writes, or with
/// `format` Json what an earlier build wrote.
std::string write_shard(const ShardableBench& bench, std::size_t begin,
                        std::size_t end, const std::string& path,
                        sim::PartialFormat format = kPartialFormat,
                        std::size_t stop_after = 0) {
  ShardKnobs knobs;
  knobs.runs = bench.runs;
  knobs.shard = sim::RunShard{begin, end};
  knobs.partial_out = path;
  knobs.format = format;
  knobs.stop_after = stop_after;
  bench.run_window(knobs);
  return path;
}

/// `object` with member `key` set to `value`, in place when present,
/// appended otherwise.
util::json::Value with_member(const util::json::Value& object,
                              const std::string& key,
                              util::json::Value value) {
  util::json::Value out = util::json::Value::object();
  bool replaced = false;
  for (const auto& [k, v] : object.as_object()) {
    out.set(k, k == key ? value : v);
    replaced = replaced || k == key;
  }
  if (!replaced) out.set(key, std::move(value));
  return out;
}

/// Calls check(at, copy) for `bytes` with one bit of byte `at` flipped,
/// at every offset of the first and last 64 bytes (the frame
/// scaffolding) and at a stride through the payload between — the
/// offsets PartialCodec.BinaryTruncationAndTrailingBytesRejected cuts at.
template <typename CheckFn>
void for_each_bit_flip(const std::string& bytes, CheckFn&& check) {
  for (std::size_t at = 0; at < bytes.size();
       at += (at < 64 || at + 64 > bytes.size()) ? 1 : 37) {
    std::string copy = bytes;
    copy[at] = static_cast<char>(copy[at] ^ (1 << (at % 8)));
    check(at, copy);
  }
}

/// The refusal merge_partial_files raises on `paths`, or "" if it merged.
std::string refusal(const std::string& dir,
                    const std::vector<std::string>& paths) {
  try {
    merge_partial_files(paths, dir + "/refused.json", "");
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(MergePartials, HeaderRebuildsTheBenchThatWroteIt) {
  // merge_partials turns "nodes": 60 into --nodes=60; this locks that
  // convention for every bench and every knob a header echoes. Building a
  // bench runs nothing.
  const std::vector<std::vector<std::string>> flag_sets = {
      {},
      {"--agg=streaming"},
      {"--seed=7"},
      {"--nodes=70", "--runs=5", "--rounds=4", "--agg=streaming",
       "--seed=11"}};
  for (const char* name :
       {"fig3_defection", "fig6_bi_distributions", "fig7_reward_comparison",
        "scenario_sweep", "strategic_ensemble", "fig_longhorizon"}) {
    for (const std::vector<std::string>& flags : flag_sets) {
      const ShardableBench bench = bench_of(name, flags);
      const ShardableBench rebuilt =
          shardable_bench_of(util::json::parse(bench.config_echo));
      EXPECT_EQ(rebuilt.config_echo, bench.config_echo)
          << name << " with " << flags.size() << " flags";
      EXPECT_EQ(rebuilt.bench_name, bench.bench_name);
      EXPECT_EQ(rebuilt.runs, bench.runs);
    }
  }
  // The knobs above really reach the headers that echo them.
  EXPECT_NE(bench_of("scenario_sweep", {"--seed=7"}).config_echo,
            bench_of("scenario_sweep", {}).config_echo);
}

TEST(MergePartials, OutOfOrderMixedFormatShardsMatchTheWholeRangeSeries) {
  const std::string dir = test_dir();
  const ShardableBench bench = bench_of("fig3_defection", kFig3);
  // s0 is JSON, as an earlier build wrote it; reads still take it.
  const std::string s0 = write_shard(bench, 0, 2, dir + "/s0.json",
                                     sim::PartialFormat::Json);
  const std::string s1 = write_shard(bench, 2, 4, dir + "/s1.bin");
  const std::string s2 = write_shard(bench, 4, 6, dir + "/s2.bin");
  merge_partial_files({s2, s0, s1}, dir + "/merged.json", "");

  // One process over the whole range, then write_series.
  ShardableBench whole = bench_of("fig3_defection", kFig3);
  const std::string all = write_shard(whole, 0, whole.runs, dir + "/all");
  whole.fold(read_text_file(all), 0, whole.runs, all);
  whole.write_series(dir + "/single.json");

  const std::string single = read_text_file(dir + "/single.json");
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(read_text_file(dir + "/merged.json"), single);
  fs::remove_all(dir);
}

TEST(MergePartials, RefusalsNameTheOffendingFile) {
  const std::string dir = test_dir();
  const ShardableBench fig3 = bench_of("fig3_defection", kFig3);
  const std::string s0 = write_shard(fig3, 0, 3, dir + "/s0.bin");
  const std::string s1 = write_shard(fig3, 3, 6, dir + "/s1.bin");
  ASSERT_EQ(refusal(dir, {s1, s0}), "");  // the untouched pair merges

  const auto expect_refused = [&](const std::vector<std::string>& paths,
                                  const std::string& offender,
                                  const std::string& reason) {
    const std::string what = refusal(dir, paths);
    EXPECT_NE(what.find(offender), std::string::npos)
        << "refusal does not name " << offender << ": " << what;
    EXPECT_NE(what.find(reason), std::string::npos)
        << "refusal does not say " << reason << ": " << what;
  };

  // A different kind: Fig 7 reward partials over the same run range.
  const std::string reward = write_shard(
      bench_of("fig7_reward_comparison",
               {"--nodes=3000", "--runs=6", "--rounds=2"}),
      3, 6, dir + "/reward.bin");
  expect_refused({s0, reward}, reward, "kind");

  // The same kind from another bench.
  const std::string scenario = write_shard(
      bench_of("scenario_sweep", kFig3), 3, 6, dir + "/scenario.bin");
  expect_refused({s0, scenario}, scenario, "scenario_sweep");

  // A differing header value.
  const std::string nodes70 = write_shard(
      bench_of("fig3_defection", {"--nodes=70", "--runs=6", "--rounds=3"}),
      3, 6, dir + "/nodes70.bin");
  expect_refused({s0, nodes70}, nodes70, "\"nodes\"");

  // A header field this bench does not echo, and a differing panel id.
  const util::json::Value doc =
      sim::decode_partial_document(read_text_file(s1), s1);
  const std::string extra = dir + "/extra.json";
  write_text_file(extra, with_member(doc, "extra", 1).dump());
  expect_refused({s0, extra}, extra, "\"extra\"");
  util::json::Value panels = util::json::Value::array();
  for (const util::json::Value& panel : doc.at("panels").as_array())
    panels.push_back(panels.as_array().empty()
                         ? with_member(panel, "rate_pct", 6.0)
                         : panel);
  const std::string relabeled = dir + "/relabeled.json";
  write_text_file(relabeled, with_member(doc, "panels", panels).dump());
  expect_refused({s0, relabeled}, relabeled, "panel 0");

  // An unfinished checkpoint and a gap, both before any fold.
  const std::string unfinished =
      write_shard(fig3, 3, 6, dir + "/unfinished.bin", kPartialFormat,
                  /*stop_after=*/1);
  expect_refused({s0, unfinished}, unfinished, "unfinished checkpoint");
  const std::string late = write_shard(fig3, 4, 6, dir + "/late.bin");
  expect_refused({s0, late}, late, "gap");
  fs::remove_all(dir);
}

TEST(MergePartials, CorruptedShardIsRefusedNamingTheFile) {
  // Every section of a written shard is checksummed, so one flipped bit
  // anywhere fails the merge naming the file — it never merges as
  // other numbers.
  const std::string dir = test_dir();
  const ShardableBench fig3 = bench_of("fig3_defection", kFig3);
  const std::string s0 = write_shard(fig3, 0, 3, dir + "/s0.bin");
  const std::string s1 = write_shard(fig3, 3, 6, dir + "/s1.bin");
  ASSERT_EQ(refusal(dir, {s0, s1}), "");
  const std::string corrupt = dir + "/corrupt.bin";
  for_each_bit_flip(read_text_file(s0), [&](std::size_t at,
                                            const std::string& bytes) {
    write_text_file(corrupt, bytes);
    const std::string what = refusal(dir, {corrupt, s1});
    EXPECT_NE(what.find(corrupt), std::string::npos)
        << "bit flip at byte " << at << ": "
        << (what.empty() ? "merged" : what);
  });
  fs::remove_all(dir);
}

TEST(MergePartials, CorruptedCheckpointIsRefusedOnResume) {
  // The same for --partial-in: a corrupted unfinished checkpoint is
  // refused before any run executes.
  const std::string dir = test_dir();
  const ShardableBench fig3 = bench_of("fig3_defection", kFig3);
  const std::string checkpoint = write_shard(
      fig3, 0, 6, dir + "/ck.bin", kPartialFormat, /*stop_after=*/2);
  const std::string corrupt = dir + "/corrupt.bin";
  for_each_bit_flip(read_text_file(checkpoint), [&](std::size_t at,
                                                    const std::string& bytes) {
    write_text_file(corrupt, bytes);
    ShardKnobs knobs;
    knobs.runs = fig3.runs;
    knobs.partial_in = corrupt;
    knobs.partial_out = dir + "/resumed.bin";
    std::string what;
    try {
      fig3.run_window(knobs);
    } catch (const std::exception& e) {
      what = e.what();
    }
    EXPECT_NE(what.find(corrupt), std::string::npos)
        << "bit flip at byte " << at << ": "
        << (what.empty() ? "resumed" : what);
  });
  fs::remove_all(dir);
}

TEST(MergePartials, StorePublishesTheFullRangeForALaterCacheHit) {
  const std::string dir = test_dir();
  const std::string store = dir + "/store";
  const ShardableBench bench = bench_of("fig3_defection", kFig3);
  const std::string s0 = write_shard(bench, 0, 3, dir + "/s0.bin");
  const std::string s1 = write_shard(bench, 3, 6, dir + "/s1.bin");
  merge_partial_files({s1, s0}, dir + "/merged.json", store);
  EXPECT_TRUE(
      sim::ResultStore(store)
          .lookup(store_key_of(util::json::parse(bench.config_echo), 0,
                               bench.runs))
          .has_value());

  // A whole-range run (run_window is run_sharded_panels) is served from
  // the published entry without executing a run.
  ShardKnobs whole;
  whole.runs = bench.runs;
  whole.store_dir = store;
  const orch::WindowOutcome hit = bench.run_window(whole);
  EXPECT_TRUE(hit.store_hit);
  EXPECT_EQ(hit.executed, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace roleshare::bench
