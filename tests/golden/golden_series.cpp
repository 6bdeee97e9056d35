// Golden suite (`ctest -L golden`): pins the series documents of the
// dense-round figure benches, the Fig 6/7 reward benches and the
// sparse-round long-horizon bench across commits.
//
// Each case builds one bench through its driver factory at smoke size
// and runs it through run_figure with --series-out, the path the bench
// binary runs (minus its per-panel printing and BENCH file), then
// compares the series document's SHA-256 with tests/golden/digests.json.
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

template <typename Driver>
void expect_golden(const std::string& bench,
                   const std::vector<std::string>& knobs,
                   Driver (*make_driver)(int, char**)) {
  const std::string path = ::testing::TempDir() + "golden_" + bench + ".json";
  std::vector<std::string> args{bench};
  args.insert(args.end(), knobs.begin(), knobs.end());
  args.push_back("--series-out=" + path);
  Argv argv(args);
  const Driver driver = make_driver(argv.argc(), argv.argv());
  ASSERT_TRUE(roleshare::bench::run_figure(driver.panels, argv.argc(),
                                           argv.argv()));
  roleshare::crypto::Sha256 sha;
  sha.update(roleshare::bench::read_text_file(path));
  const std::string actual =
      roleshare::crypto::Hash256(sha.finalize()).to_hex();
  const std::string expected = committed_digest(bench);

  std::string command = "./build/" + bench;
  for (const std::string& knob : knobs) command += " " + knob;
  command += " --series-out=" + bench + ".json && sha256sum " + bench +
             ".json";
  EXPECT_EQ(actual, expected)
      << "golden mismatch for " << bench << "\n  committed: " << expected
      << " (tests/golden/digests.json)\n  computed:  " << actual
      << "\n  print a fresh digest with: " << command;
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

}  // namespace
