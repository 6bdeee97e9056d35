// BENCH_*.json emission: numeric + string fields, escaping, and the
// always-present git_sha provenance field; whole-file writes that keep
// the previous file on failure; the shard and numeric knob parsing.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include "bench_drivers.hpp"
#include "shard_util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace roleshare::bench {
namespace {

std::string read_and_remove(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(BenchUtil, EmitJsonWritesNumericAndStringFields) {
  emit_json("test_mixed", {{"nodes", 100.0},
                           {"threads", std::size_t{4}},
                           {"stakes", "U(1,200)"},
                           {"wall_ms", 12.5}});
  const std::string json = read_and_remove("BENCH_test_mixed.json");
  EXPECT_NE(json.find("\"bench\": \"test_mixed\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"stakes\": \"U(1,200)\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\": 12.5"), std::string::npos);
}

TEST(BenchUtil, EmitJsonAlwaysRecordsGitSha) {
  emit_json("test_sha", {});
  const std::string json = read_and_remove("BENCH_test_sha.json");
  EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos);
  // The baked-in value itself is available programmatically too.
  EXPECT_NE(json.find(git_sha()), std::string::npos);
}

TEST(BenchUtil, EmitJsonAlwaysRecordsSha256Impl) {
  // Hashing-bound timings move with the compression CPUID picked, so
  // every BENCH file names it.
  emit_json("test_sha256_impl", {});
  const std::string json = read_and_remove("BENCH_test_sha256_impl.json");
  EXPECT_NE(json.find("\"sha256_impl\": \"" +
                      std::string(crypto::sha256_implementation()) + "\""),
            std::string::npos);
}

TEST(BenchUtil, EmitJsonAlwaysRecordsPeakRss) {
  // The memory-trajectory field behind the exact-vs-streaming story: a
  // positive byte count on every supported platform.
  EXPECT_GT(peak_rss_bytes(), 0.0);
  emit_json("test_rss", {});
  const std::string json = read_and_remove("BENCH_test_rss.json");
  const auto pos = json.find("\"peak_rss_bytes\": ");
  ASSERT_NE(pos, std::string::npos);
  const double value =
      std::strtod(json.c_str() + pos + std::string("\"peak_rss_bytes\": ").size(),
                  nullptr);
  EXPECT_GT(value, 1024.0);  // any real process tops 1 KiB
}

TEST(BenchUtil, TextFileRoundTripAndMissingFile) {
  const std::string path = "bench_util_roundtrip.tmp";
  write_text_file(path, "{\"a\": 1}\n");
  EXPECT_EQ(read_text_file(path), "{\"a\": 1}\n");
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file("no_such_file.tmp"), std::runtime_error);
}

TEST(BenchUtil, ArgRunShardWindowsAndRejections) {
  const auto shard_for = [](std::vector<const char*> args,
                            std::size_t runs) {
    args.insert(args.begin(), "prog");
    return arg_run_shard(static_cast<int>(args.size()),
                         const_cast<char**>(args.data()), runs);
  };
  EXPECT_TRUE(shard_for({}, 8).whole());
  const sim::RunShard window = shard_for({"--run-begin=2", "--run-end=5"}, 8);
  EXPECT_EQ(window.begin, 2u);
  EXPECT_EQ(window.end, 5u);
  const sim::RunShard tail = shard_for({"--run-begin=6"}, 8);
  EXPECT_EQ(tail.begin, 6u);
  EXPECT_EQ(tail.end, 8u);
  // An explicitly empty window must fail loudly — NOT silently become
  // the whole-range sentinel (a launcher passing --run-end=0 would
  // otherwise duplicate the entire sweep).
  EXPECT_THROW(shard_for({"--run-end=0"}, 8), std::invalid_argument);
  EXPECT_THROW(shard_for({"--run-begin=5", "--run-end=5"}, 8),
               std::invalid_argument);
}

TEST(BenchUtil, ArgStringParsesAndDefaults) {
  const char* argv_c[] = {"prog", "--agg=streaming", "--partial-out=s0.json"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EQ(arg_string(3, argv, "agg", "exact"), "streaming");
  EXPECT_EQ(arg_string(3, argv, "partial-out", ""), "s0.json");
  EXPECT_EQ(arg_string(1, argv, "agg", "exact"), "exact");  // default
}

TEST(BenchUtil, JsonEscapeHandlesSpecials) {
  // emit_json writes every key and string value through dump().
  const auto dump = [](const std::string& s) {
    return util::json::Value(s).dump();
  };
  EXPECT_EQ(dump("plain"), "\"plain\"");
  EXPECT_EQ(dump("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(dump("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(dump("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(dump(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(BenchUtil, EmitJsonEscapesStringValues) {
  emit_json("test_escape", {{"label", "quote\"and\\slash"}});
  const std::string json = read_and_remove("BENCH_test_escape.json");
  EXPECT_NE(json.find("\"label\": \"quote\\\"and\\\\slash\""),
            std::string::npos);
}

TEST(BenchUtil, FailedWriteKeepsThePreviousFile) {
  // A rewrite that fails part-way (here: a 20-byte file size limit) must
  // throw naming the path and leave the previous file byte-identical —
  // under --partial-in=X --partial-out=X it is the only resume state.
  const std::string path = ::testing::TempDir() + "bench_util_keep_" +
                           std::to_string(::getpid()) + ".partial";
  const std::string previous(50, 'p');
  write_text_file(path, previous);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = 20;
  std::vector<std::string> errors;
  std::vector<std::string> left_behind;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const bool limit_set = ::setrlimit(RLIMIT_FSIZE, &limited) == 0;
  for (const std::size_t size : {std::size_t{100}, std::size_t{100000}}) {
    if (!limit_set) break;
    try {
      write_text_file(path, std::string(size, 'n'));
      errors.push_back("");
    } catch (const std::runtime_error& e) {
      errors.push_back(e.what());
    }
    left_behind.push_back(read_text_file(path));
  }
  // Restore before anything can print (gtest's output is a file write).
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  ASSERT_TRUE(limit_set);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_NE(errors[i].find(path), std::string::npos)
        << "write " << i << ": "
        << (errors[i].empty() ? "returned normally" : errors[i]);
    EXPECT_EQ(left_behind[i], previous) << "write " << i;
  }
  std::remove(path.c_str());
}

TEST(BenchUtil, AuditResumeFormatGuardsCheckpointFormatFlips) {
  // An unfinished JSON checkpoint, as an earlier build wrote it, resumes
  // to completion; the rewritten --partial-out is an RSBP frame holding
  // the uninterrupted run's document.
  const std::string dir = ::testing::TempDir() + "bench_util_resume_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const char* argv_c[] = {"prog", "--nodes=60", "--runs=6", "--rounds=3"};
  const ShardableBench bench = make_shardable_bench(
      "fig3_defection", 4, const_cast<char**>(argv_c));

  ShardKnobs uninterrupted;
  uninterrupted.runs = bench.runs;
  uninterrupted.partial_out = dir + "/uninterrupted.bin";
  bench.run_window(uninterrupted);

  ShardKnobs earlier_build;
  earlier_build.runs = bench.runs;
  earlier_build.partial_out = dir + "/ck.partial";
  earlier_build.stop_after = 2;
  earlier_build.format = sim::PartialFormat::Json;
  ASSERT_FALSE(bench.run_window(earlier_build).complete);
  ASSERT_EQ(read_text_file(earlier_build.partial_out).substr(0, 1), "{");

  ShardKnobs resume;
  resume.runs = bench.runs;
  resume.partial_in = earlier_build.partial_out;
  resume.partial_out = earlier_build.partial_out;
  EXPECT_TRUE(bench.run_window(resume).complete);
  const std::string resumed = read_text_file(resume.partial_out);
  EXPECT_EQ(resumed.substr(0, 4), "RSBP");
  EXPECT_EQ(
      sim::decode_partial_document(resumed, resume.partial_out).dump(),
      sim::decode_partial_document(
          read_text_file(uninterrupted.partial_out), "uninterrupted")
          .dump());
  std::filesystem::remove_all(dir);
}

TEST(BenchUtil, ArgShardKnobsWiresFormatAudit) {
  // The written encoding is not a command-line choice: a JSON
  // --partial-in and a stray --format=json still yield RSBP.
  const std::string path = "audit_fmt_argv.partial";
  util::json::Value doc = util::json::Value::object();
  doc.set("kind", "defection");
  write_text_file(path, doc.dump() + "\n");
  const auto knobs_for = [&](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return arg_shard_knobs(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), 8);
  };
  const std::string in_flag = "--partial-in=" + path;
  EXPECT_EQ(knobs_for({}).format, sim::PartialFormat::Binary);
  EXPECT_EQ(knobs_for({in_flag.c_str(), "--partial-out=o.partial"}).format,
            sim::PartialFormat::Binary);
  EXPECT_EQ(knobs_for({in_flag.c_str(), "--partial-out=o.partial",
                       "--format=json"})
                .format,
            sim::PartialFormat::Binary);
  std::remove(path.c_str());
}

// Builds argv from `args`; the parsers only read it.
struct Argv {
  std::vector<const char*> args;
  int argc() const { return static_cast<int>(args.size()); }
  char** argv() { return const_cast<char**>(args.data()); }
};

Argv with(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Argv{std::move(args)};
}

// `parse` must throw std::invalid_argument naming `flag`.
template <typename Parse>
void expect_refused(const std::string& flag, Parse parse) {
  try {
    parse();
    ADD_FAILURE() << flag << " accepted a malformed value";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
        << e.what();
  }
}

TEST(BenchUtil, NumericFlagsRejectMalformedValues) {
  // A value parses whole or not at all: a truncating parse would run
  // --nodes=60k as 60 nodes and --runs=2e3 as 2 runs.
  for (const char* bad : {"--nodes=60k", "--nodes=2e3", "--nodes=",
                          "--nodes= 5", "--nodes=99999999999999999999"}) {
    Argv a = with({bad});
    expect_refused("--nodes", [&] { arg_int(a.argc(), a.argv(), "nodes", 1); });
  }
  for (const char* bad : {"--alpha=0.3x", "--alpha=", "--alpha=1e999",
                          "--alpha=nan", "--alpha=inf"}) {
    Argv a = with({bad});
    expect_refused("--alpha",
                   [&] { arg_real(a.argc(), a.argv(), "alpha", 0.3); });
  }
  // A negative count is refused, not wrapped to ~2^64.
  Argv negative = with({"--nodes=-5", "--threads=-2", "--inner-threads=-1",
                        "--checkpoint-every=-3"});
  expect_refused("--nodes", [&] {
    arg_size(negative.argc(), negative.argv(), "nodes", 1);
  });
  expect_refused("--threads",
                 [&] { arg_threads(negative.argc(), negative.argv()); });
  expect_refused("--inner-threads", [&] {
    arg_inner_threads(negative.argc(), negative.argv());
  });
  expect_refused("--checkpoint-every", [&] {
    arg_shard_knobs(negative.argc(), negative.argv(), 8);
  });
  Argv bad_knob = with({"--runs=2e3"});
  expect_refused("--runs", [&] {
    arg_panel_knobs(bad_knob.argc(), bad_knob.argv(),
                    {.nodes = 1, .runs = 1, .rounds = 1});
  });
  // No run would execute, so nothing else would refuse it before the
  // figure reads its first partial.
  Argv no_runs = with({"--runs=0"});
  expect_refused("--runs", [&] {
    arg_panel_knobs(no_runs.argc(), no_runs.argv(),
                    {.nodes = 1, .runs = 1, .rounds = 1});
  });

  // Well-formed values still parse; 0 still means all cores and absent
  // flags keep their fallbacks, the -1 sentinels included.
  Argv good = with({"--nodes=60000", "--threads=0", "--alpha=0.25",
                    "--run-begin=-1", "--top-fraction=1e-2"});
  EXPECT_EQ(arg_size(good.argc(), good.argv(), "nodes", 1), 60000u);
  EXPECT_EQ(arg_threads(good.argc(), good.argv()), 0u);
  EXPECT_EQ(arg_inner_threads(good.argc(), good.argv()), 1u);
  EXPECT_EQ(arg_real(good.argc(), good.argv(), "alpha", 0.3), 0.25);
  EXPECT_EQ(arg_real(good.argc(), good.argv(), "top-fraction", 0.5), 0.01);
  EXPECT_EQ(arg_real(good.argc(), good.argv(), "beta", 0.3), 0.3);
  EXPECT_EQ(arg_int(good.argc(), good.argv(), "run-begin", 0), -1);
  EXPECT_EQ(arg_int(good.argc(), good.argv(), "run-end", -1), -1);
  const PanelKnobs knobs = arg_panel_knobs(
      good.argc(), good.argv(), {.nodes = 400, .runs = 8, .rounds = 30});
  EXPECT_EQ(knobs.nodes, 60000u);
  EXPECT_EQ(knobs.runs, 8u);
  EXPECT_EQ(knobs.rounds, 30u);
  EXPECT_EQ(knobs.threads, 0u);
  EXPECT_EQ(knobs.inner_threads, 1u);
  EXPECT_EQ(knobs.agg, sim::AggBackend::Exact);
}

// Flags whose absence means "not set" decide that from the flag's
// presence: an explicit negative value is refused naming the flag, not
// read as absent (--run-begin=-3 used to run the whole figure).
TEST(BenchUtil, RunWindowFlagsRefuseNegatives) {
  // --run-begin / --run-end (every panel bench).
  for (std::vector<const char*> args :
       {std::vector<const char*>{"--run-begin=-3", "--run-end=2"},
        std::vector<const char*>{"--run-begin=-3"},
        std::vector<const char*>{"--run-begin=-1"}}) {
    Argv a = with(args);
    expect_refused("--run-begin",
                   [&] { arg_run_shard(a.argc(), a.argv(), 4); });
  }
  Argv end = with({"--run-begin=1", "--run-end=-1"});
  expect_refused("--run-end",
                 [&] { arg_run_shard(end.argc(), end.argv(), 4); });
  expect_refused("--run-end",
                 [&] { arg_shard_knobs(end.argc(), end.argv(), 4); });

  // orchestrate --reissue / --window and round_latency --rounds.
  Argv negative = with({"--reissue=-2", "--window=-1", "--rounds=-2"});
  expect_refused("--reissue", [&] {
    arg_optional_size(negative.argc(), negative.argv(), "reissue");
  });
  expect_refused("--window", [&] {
    arg_size(negative.argc(), negative.argv(), "window", 0);
  });
  expect_refused("--rounds", [&] {
    arg_optional_size(negative.argc(), negative.argv(), "rounds");
  });

  // Absent flags keep their defaults; 0 is a value, not an absence.
  Argv none = with({});
  EXPECT_TRUE(arg_run_shard(none.argc(), none.argv(), 4).whole());
  EXPECT_FALSE(arg_optional_size(none.argc(), none.argv(), "reissue"));
  EXPECT_EQ(arg_size(none.argc(), none.argv(), "window", 0), 0u);
  Argv zero = with({"--run-begin=0", "--reissue=0", "--window=0"});
  const sim::RunShard from_zero = arg_run_shard(zero.argc(), zero.argv(), 4);
  EXPECT_EQ(from_zero.begin, 0u);
  EXPECT_EQ(from_zero.end, 4u);
  EXPECT_EQ(arg_optional_size(zero.argc(), zero.argv(), "reissue"), 0u);
  EXPECT_EQ(arg_size(zero.argc(), zero.argv(), "window", 0), 0u);
}

TEST(BenchUtil, ArgParsingReadsInnerThreads) {
  const char* argv_c[] = {"prog", "--threads=3", "--inner-threads=5"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EQ(arg_threads(3, argv), 3u);
  EXPECT_EQ(arg_inner_threads(3, argv), 5u);
  EXPECT_EQ(arg_inner_threads(1, argv), 1u);  // default
}

}  // namespace
}  // namespace roleshare::bench
