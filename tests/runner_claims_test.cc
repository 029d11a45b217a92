// Unit tests for checked claims (runner/claims.h): parse errors, per-cell
// and per-group evaluation on hand-built summaries, and dhc_run's exit codes.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "graph/generators.h"
#include "runner/aggregator.h"
#include "runner/claims.h"
#include "runner/scenario.h"

namespace dhc::runner {
namespace {

ConfigSummary cell(Algorithm algo, graph::NodeId n, double rounds,
                   std::map<std::string, double> stats = {}) {
  ConfigSummary s;
  s.config.algo = algo;
  s.config.n = n;
  s.config.delta = 0.5;
  s.config.c = 2.5;
  s.trials = 3;
  s.successes = 3;
  s.success_rate = 1.0;
  s.rounds.count = 3;
  s.rounds.median = rounds;
  s.stat_means = std::move(stats);
  return s;
}

/// The printed report of one claim, and whether it held.
struct Report {
  bool pass = false;
  std::string out;

  bool has(const std::string& text) const { return out.find(text) != std::string::npos; }
  /// Checked cells or slope groups: one PASS/FAIL line each.
  int checks() const {
    int n = 0;
    for (std::size_t at = 0; (at = out.find("\n  ", at)) != std::string::npos; ++at) {
      n += out.compare(at + 3, 4, "PASS") == 0 || out.compare(at + 3, 4, "FAIL") == 0;
    }
    return n;
  }
};

Report check(const std::string& claims, const std::vector<ConfigSummary>& cells) {
  std::ostringstream os;
  Report r;
  r.pass = check_claims(os, claims, cells);
  r.out = os.str();
  return r;
}

TEST(ClaimParse, SplitsOnSemicolonsAndKeepsTheText) {
  const std::vector<ConfigSummary> cells = {cell(Algorithm::kDhc2, 512, 100)};
  const auto both = check("rounds < 3;  algos=dhc2: rounds / 2 >= n ^ 0.5 ", cells);
  EXPECT_FALSE(both.pass);
  EXPECT_TRUE(both.has("\nclaim 1: rounds < 3\n  FAIL  all: 100 < 3\n  => FAIL\n"));
  EXPECT_TRUE(both.has("\nclaim 2: algos=dhc2: rounds / 2 >= n ^ 0.5\n  PASS  all: 50 >= 22.63\n"));
  EXPECT_TRUE(check("", cells).pass);  // no claims: nothing to check
}

TEST(ClaimParse, RejectsMalformedClaims) {
  for (const char* bad : {
           "rounds == 3", "rounds => 3", "rounds != 3", "rounds = 3",  // comparison operators
           "rounds 3", "rounds <", "rounds < 3 4", "rounds < 3;", " ",  // shape
           "(rounds < n", "rounds < (n", "rounds < n)", "ln(n < 3",     // parentheses
           "frobs=dhc2: rounds < 3", "rounds[frobs=1] < 3",            // selector keys
           "algos=nope: rounds < 3", "sizes=12x: rounds < 3", "rounds[algos=dhc2 < 3",
           "cube(n) < 3", "slope(rounds, c) < 0", "rounds < 1.2.3", "rounds < ."}) {
    EXPECT_THROW(validate_claims(bad), std::invalid_argument) << bad;
  }
  // A scenario validates its claims when it is built.
  EXPECT_THROW(scenario_from_spec({{"claims", "rounds == 3"}}), std::invalid_argument);
  EXPECT_EQ(scenario_from_spec({{"claims", "rounds < 3"}}).claims, "rounds < 3");
}

TEST(ClaimCheck, PerCellPassAndFail) {
  const std::vector<ConfigSummary> cells = {cell(Algorithm::kDhc2, 512, 100),
                                            cell(Algorithm::kDhc2, 1024, 200)};
  const auto pass = check("rounds / n < 0.25", cells);
  EXPECT_TRUE(pass.pass);
  EXPECT_EQ(pass.checks(), 2);
  EXPECT_TRUE(pass.has("  PASS  sizes=512: 0.1953 < 0.25\n"));
  EXPECT_TRUE(pass.has("  => PASS\n"));

  const auto fail = check("rounds < 150", cells);
  EXPECT_FALSE(fail.pass);
  EXPECT_EQ(fail.checks(), 2);
  EXPECT_TRUE(fail.has("  PASS  sizes=512: 100 < 150\n"));
  EXPECT_TRUE(fail.has("  FAIL  sizes=1024: 200 < 150\n"));
  EXPECT_TRUE(fail.has("  => FAIL\n"));

  // Precedence ^ > * / > + -, and the cell variables.
  EXPECT_TRUE(check("2 + 3 * 2 ^ 2 / 4 <= 5", cells).pass);
  EXPECT_FALSE(check("(2 + 3) * 2 < 10", cells).pass);
  EXPECT_TRUE(check("sizes=512: sqrt(n) * ln(n) > 140", cells).pass);
  // p = 2.5 ln 512 / √512.
  EXPECT_NEAR(graph::edge_probability(512, 2.5, 0.5), 0.68924, 1e-5);
  EXPECT_TRUE(check("sizes=512: p >= 0", cells).has("sizes=512: 0.6892 >= 0"));
  EXPECT_TRUE(check("c * delta <= 1.25", cells).pass);
}

TEST(ClaimCheck, SlopeGroupsAcrossASecondAxis) {
  const std::vector<ConfigSummary> cells = {
      cell(Algorithm::kDhc1, 512, 100), cell(Algorithm::kDhc1, 2048, 200),
      cell(Algorithm::kDhc2, 512, 100), cell(Algorithm::kDhc2, 2048, 1600)};
  const auto v = check("slope(rounds, n) < 1", cells);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.checks(), 2);  // one per algorithm, not per cell
  EXPECT_TRUE(v.has("  PASS  algos=dhc1: 0.5 < 1\n"));
  EXPECT_TRUE(v.has("  FAIL  algos=dhc2: 2 < 1\n"));
  EXPECT_TRUE(check("algos=dhc1: slope(rounds) < 1", cells).pass);  // n is the default axis

  // A group with one cell along the axis has no slope: FAIL.
  const auto lone = check("sizes=512: slope(rounds, delta) > 0", cells);
  EXPECT_FALSE(lone.pass);
  EXPECT_TRUE(lone.has("at least two cells"));
}

TEST(ClaimCheck, PairedCellDiffersOnlyInTheSelectorKeys) {
  const std::vector<ConfigSummary> cells = {
      cell(Algorithm::kUpcast, 512, 10), cell(Algorithm::kUpcast, 1024, 12),
      cell(Algorithm::kCollectAll, 512, 100), cell(Algorithm::kCollectAll, 1024, 200)};
  const auto ratio = check("algos=upcast: rounds[algos=collect-all] / rounds > 9", cells);
  EXPECT_TRUE(ratio.pass);
  EXPECT_EQ(ratio.checks(), 2);
  EXPECT_TRUE(ratio.has("  PASS  algos=upcast,sizes=1024: 16.67 > 9\n"));
  const auto widening =
      check("algos=upcast: slope(rounds[algos=collect-all] / rounds, n) > 0", cells);
  EXPECT_TRUE(widening.pass);
  EXPECT_EQ(widening.checks(), 1);
  // Two keys move two axes at once.
  EXPECT_TRUE(check("algos=upcast,sizes=512: rounds[algos=collect-all,sizes=1024] > 199", cells)
                  .has(": 200 > 199\n"));

  const auto unpaired = check("algos=upcast: rounds[algos=dhc1] > 0", cells);
  EXPECT_FALSE(unpaired.pass);
  EXPECT_TRUE(unpaired.has("no cell pairs"));
}

TEST(ClaimCheck, MissingValuesFailAndAreNeverSkipped) {
  std::vector<ConfigSummary> cells = {cell(Algorithm::kDhc2, 512, 100, {{"x", 1.0}}),
                                      cell(Algorithm::kDhc2, 1024, 200)};
  // A VAR the cell lacks.
  const auto lacks = check("x > 0", cells);
  EXPECT_FALSE(lacks.pass);
  EXPECT_EQ(lacks.checks(), 2);
  EXPECT_TRUE(lacks.has("  PASS  sizes=512: 1 > 0\n"));
  EXPECT_TRUE(lacks.has("  FAIL  sizes=1024: sizes=1024 lacks 'x'\n"));

  // A median of a cell with zero successes, also inside slope().
  cells[1].successes = 0;
  cells[1].success_rate = 0.0;
  const auto median = check("rounds > 0", cells);
  EXPECT_FALSE(median.pass);
  EXPECT_EQ(median.checks(), 2);
  EXPECT_TRUE(median.has("  FAIL  sizes=1024: sizes=1024 has no success, so no median rounds"));
  EXPECT_FALSE(check("slope(rounds) > 0", cells).pass);
  EXPECT_TRUE(check("success_rate >= 0", cells).pass);  // not a median

  // A selector that admits no cell.
  const auto none = check("algos=turau: success_rate >= 0", cells);
  EXPECT_FALSE(none.pass);
  EXPECT_TRUE(none.has("the selector admits none"));
}

int run_dhc_run(const std::string& scenario_body) {
  const std::string path = ::testing::TempDir() + "dhc_claims_test.scn";
  std::ofstream(path) << scenario_body;
  const std::string cmd = std::string(DHC_RUN_BINARY) + " --scenario=" + path +
                          " --json= > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DhcRunClaims, ExitCodeThreeOnAFailingClaim) {
  const std::string cells = "algos = sequential\nsizes = 64,128\ndeltas = 1\ncs = 6\nseeds = 2\n";
  EXPECT_EQ(run_dhc_run(cells + "claims = rounds / (n * ln(n)) < 7\n"), 0);
  EXPECT_EQ(run_dhc_run(cells + "claims = rounds / (n * ln(n)) < 7; rounds < 0\n"), 3);
  EXPECT_EQ(run_dhc_run(cells + "claims = rounds =< 7\n"), 2);  // bad usage stays 2
}

// An --algos override shifts every later cell's algorithm seed, so dhc_run
// says on stderr that the trials are not a rerun of the file's cells.
TEST(DhcRunClaims, AlgosOverrideOfAScenarioFileIsNoted) {
  const std::string path = ::testing::TempDir() + "dhc_algos_note_test.scn";
  std::ofstream(path) << "algos = sequential,dra\nsizes = 64\ndeltas = 1\ncs = 6\nseeds = 1\n";
  const std::string err = ::testing::TempDir() + "dhc_algos_note_test.err";
  const auto stderr_of = [&](const std::string& flags) {
    const std::string cmd = std::string(DHC_RUN_BINARY) + " --scenario=" + path + " " + flags +
                            " --json= > /dev/null 2> " + err;
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(err);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_NE(stderr_of("--algos=dra").find("note: --algos replaces"), std::string::npos);
  EXPECT_EQ(stderr_of("--algos=sequential,dra").find("note:"), std::string::npos);
  EXPECT_EQ(stderr_of("--sizes=32").find("note:"), std::string::npos);
}

}  // namespace
}  // namespace dhc::runner
