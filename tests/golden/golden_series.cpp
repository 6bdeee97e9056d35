// Golden suite (`ctest -L golden`): pins the series documents and the
// partial documents of the dense-round figure benches, the Fig 6/7
// reward benches and the sparse-round long-horizon bench across commits.
//
// Each case builds one bench through its driver factory at smoke size
// and runs it through run_figure with --series-out, the path the bench
// binary runs (minus its per-panel printing and BENCH file), then
// compares the series document's SHA-256 with tests/golden/digests.json.
// It also encodes the run's partial document as the RSBP bytes
// --partial-out writes and compares their SHA-256 with the
// `<artifact>.partial` entry, so checkpoints, shards and store entries
// stay readable across commits. One case per experiment family repeats
// this under --agg=streaming (`<bench>.streaming` entries).
// Fig 3's smoke size runs enough rounds that its weak-synchrony schedule
// degrades some of them (delays ×25), so both gossip paths — certified
// reachability and exact Dijkstra (DESIGN.md §5) — shape its digest. The
// long-horizon case reads the keys, stakes and accounts of a fresh
// Network through the sparse path (DESIGN.md §10).
//
// The suite never rewrites digests.json. A mismatch names the artifact,
// both digests and the bench command whose output `sha256sum` turns into
// the fresh digest. Change the file only on purpose, and say why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"
#include "shard_util.hpp"
#include "sim/partial_codec.hpp"
#include "util/json.hpp"

namespace {

// Owns the argv a driver factory parses, like a bench main receives it.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

std::string committed_digest(const std::string& artifact) {
  const roleshare::util::json::Value digests = roleshare::util::json::parse(
      roleshare::bench::read_text_file(ROLESHARE_GOLDEN_DIGESTS));
  const roleshare::util::json::Value* entry = digests.find(artifact);
  return entry == nullptr ? "<missing>" : entry->as_string();
}

std::string sha256_hex(const std::string& bytes) {
  roleshare::crypto::Sha256 sha;
  sha.update(bytes);
  return roleshare::crypto::Hash256(sha.finalize()).to_hex();
}

// Compares `actual` with the committed digest of `artifact`; a mismatch
// prints the bench command whose `output_flag` file hashes to the fresh
// digest.
void expect_digest(const std::string& artifact, const std::string& actual,
                   const std::string& bench,
                   const std::vector<std::string>& knobs,
                   const std::string& output_flag, const std::string& file) {
  const std::string expected = committed_digest(artifact);
  std::string command = "./build/" + bench;
  for (const std::string& knob : knobs) command += " " + knob;
  command += " " + output_flag + "=" + file + " && sha256sum " + file;
  EXPECT_EQ(actual, expected)
      << "golden mismatch for " << artifact << "\n  committed: " << expected
      << " (tests/golden/digests.json)\n  computed:  " << actual
      << "\n  print a fresh digest with: " << command;
}

// Pins the series document under `artifact` and the partial document
// under `artifact.partial`.
template <typename Driver>
void expect_golden(const std::string& artifact, const std::string& bench,
                   const std::vector<std::string>& knobs,
                   Driver (*make_driver)(int, char**)) {
  const std::string path =
      ::testing::TempDir() + "golden_" + artifact + ".json";
  std::vector<std::string> args{bench};
  args.insert(args.end(), knobs.begin(), knobs.end());
  args.push_back("--series-out=" + path);
  Argv argv(args);
  const Driver driver = make_driver(argv.argc(), argv.argv());
  const auto exec = roleshare::bench::run_figure(driver.panels, argv.argc(),
                                                 argv.argv());
  ASSERT_TRUE(exec);
  expect_digest(artifact,
                sha256_hex(roleshare::bench::read_text_file(path)), bench,
                knobs, "--series-out", bench + ".json");

  // The bytes --partial-out writes for the same window.
  const std::string partial =
      roleshare::sim::partial_codec(roleshare::bench::kPartialFormat)
          .encode(roleshare::bench::partial_document(
              driver.panels.header, exec->window_begin, exec->cursor,
              exec->window_end, exec->partials, driver.panels.panel_meta));
  expect_digest(artifact + ".partial", sha256_hex(partial), bench, knobs,
                "--partial-out", bench + ".bin");
}

template <typename Driver>
void expect_golden(const std::string& bench,
                   const std::vector<std::string>& knobs,
                   Driver (*make_driver)(int, char**)) {
  expect_golden(bench, bench, knobs, make_driver);
}

TEST(Golden, Fig3DefectionSeries) {
  expect_golden("fig3_defection",
                {"--nodes=80", "--runs=2", "--rounds=30", "--threads=1"},
                roleshare::bench::make_fig3_driver);
}

TEST(Golden, Fig6BiDistributionsSeries) {
  expect_golden("fig6_bi_distributions",
                {"--nodes=2000", "--runs=2", "--rounds=4", "--threads=1"},
                roleshare::bench::make_fig6_driver);
}

// At 2000 nodes a round's 13,026 leader and committee draws cover nearly
// every node, so the Others scan sums a handful of nodes. At 50k about
// three quarters of the population are Others.
TEST(Golden, Fig6BiDistributions50kSeries) {
  expect_golden("fig6_bi_distributions.50k", "fig6_bi_distributions",
                {"--nodes=50000", "--runs=2", "--rounds=2", "--threads=1"},
                roleshare::bench::make_fig6_driver);
}

TEST(Golden, Fig7RewardComparisonSeries) {
  expect_golden("fig7_reward_comparison",
                {"--nodes=2000", "--runs=2", "--rounds=4", "--threads=1"},
                roleshare::bench::make_fig7_driver);
}

TEST(Golden, ScenarioSweepSeries) {
  expect_golden("scenario_sweep",
                {"--nodes=80", "--runs=2", "--rounds=8", "--threads=1"},
                roleshare::bench::make_scenario_driver);
}

TEST(Golden, StrategicEnsembleSeries) {
  expect_golden("strategic_ensemble",
                {"--nodes=80", "--runs=2", "--rounds=20", "--threads=1"},
                roleshare::bench::make_strategic_driver);
}

TEST(Golden, FigLongHorizonSeries) {
  expect_golden("fig_longhorizon",
                {"--nodes=2000", "--runs=2", "--rounds=60", "--threads=1"},
                roleshare::bench::make_longhorizon_driver);
}

// The streaming backend's documents, one case per experiment family.
TEST(Golden, Fig3DefectionStreamingSeries) {
  expect_golden("fig3_defection.streaming", "fig3_defection",
                {"--nodes=80", "--runs=2", "--rounds=30", "--threads=1",
                 "--agg=streaming"},
                roleshare::bench::make_fig3_driver);
}

TEST(Golden, Fig7RewardComparisonStreamingSeries) {
  expect_golden("fig7_reward_comparison.streaming", "fig7_reward_comparison",
                {"--nodes=2000", "--runs=2", "--rounds=4", "--threads=1",
                 "--agg=streaming"},
                roleshare::bench::make_fig7_driver);
}

TEST(Golden, StrategicEnsembleStreamingSeries) {
  expect_golden("strategic_ensemble.streaming", "strategic_ensemble",
                {"--nodes=80", "--runs=2", "--rounds=20", "--threads=1",
                 "--agg=streaming"},
                roleshare::bench::make_strategic_driver);
}

TEST(Golden, FigLongHorizonStreamingSeries) {
  expect_golden("fig_longhorizon.streaming", "fig_longhorizon",
                {"--nodes=2000", "--runs=2", "--rounds=60", "--threads=1",
                 "--agg=streaming"},
                roleshare::bench::make_longhorizon_driver);
}

}  // namespace
