// BENCH_*.json emission: numeric + string fields, escaping, and the
// always-present git_sha provenance field.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include "shard_util.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

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
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(BenchUtil, EmitJsonEscapesStringValues) {
  emit_json("test_escape", {{"label", "quote\"and\\slash"}});
  const std::string json = read_and_remove("BENCH_test_escape.json");
  EXPECT_NE(json.find("\"label\": \"quote\\\"and\\\\slash\""),
            std::string::npos);
}

TEST(BenchUtil, AuditResumeFormatGuardsCheckpointFormatFlips) {
  // A bin checkpoint resumed under the json default must NOT silently
  // flip the chain back to json: the audit inherits the on-disk format
  // when --format was defaulted, and refuses (naming both formats) when
  // it was explicit. Detection only sniffs leading bytes, so a minimal
  // document through the real codec is enough.
  const std::string bin_path = "audit_fmt_bin.partial";
  const std::string json_path = "audit_fmt_json.partial";
  util::json::Value doc = util::json::Value::object();
  doc.set("kind", "defection");
  write_text_file(
      bin_path, sim::partial_codec(sim::PartialFormat::Binary).encode(doc));
  write_text_file(json_path, doc.dump() + "\n");

  ShardKnobs knobs;
  knobs.partial_in = bin_path;
  knobs.partial_out = "audit_fmt_out.partial";
  knobs.format = sim::PartialFormat::Json;  // the default
  knobs.format_explicit = false;
  audit_resume_format(knobs);
  EXPECT_EQ(knobs.format, sim::PartialFormat::Binary);  // inherited

  knobs.format = sim::PartialFormat::Json;
  knobs.format_explicit = true;  // user demanded json over a bin file
  try {
    audit_resume_format(knobs);
    FAIL() << "explicit --format mismatch must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("json"), std::string::npos) << what;
    EXPECT_NE(what.find("bin"), std::string::npos) << what;
    EXPECT_NE(what.find(bin_path), std::string::npos) << what;
  }

  // Matching formats (either way) and an empty partial_in are no-ops.
  knobs.partial_in = json_path;
  knobs.format = sim::PartialFormat::Json;
  audit_resume_format(knobs);
  EXPECT_EQ(knobs.format, sim::PartialFormat::Json);
  knobs.partial_in.clear();
  knobs.format_explicit = true;
  audit_resume_format(knobs);  // nothing to resume, nothing to audit

  std::remove(bin_path.c_str());
  std::remove(json_path.c_str());
}

TEST(BenchUtil, ArgShardKnobsWiresFormatAudit) {
  // End-to-end through the argv surface the bench mains use: a json
  // checkpoint with an explicit --format=bin fails at knob-parse time,
  // before any run executes; with no --format the chain inherits json.
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
  EXPECT_THROW(
      knobs_for({in_flag.c_str(), "--partial-out=o.partial", "--format=bin"}),
      std::invalid_argument);
  const ShardKnobs inherited =
      knobs_for({in_flag.c_str(), "--partial-out=o.partial"});
  EXPECT_EQ(inherited.format, sim::PartialFormat::Json);
  EXPECT_FALSE(inherited.format_explicit);
  const ShardKnobs explicit_json =
      knobs_for({in_flag.c_str(), "--partial-out=o.partial", "--format=json"});
  EXPECT_TRUE(explicit_json.format_explicit);
  std::remove(path.c_str());
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
