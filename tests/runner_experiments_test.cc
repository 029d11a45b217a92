// Every checked-in experiment (experiments/*.scn) parses, with its claims,
// and expands to a non-empty trial list.  Every benchmark preset
// (bench/presets/*.scn) parses, is named after its file, and expands to
// exactly the trial list its committed baselines were recorded from.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/scenario.h"

namespace dhc::runner {
namespace {

TEST(Experiments, EveryScenarioFileParsesAndExpands) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(DHC_EXPERIMENTS_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ++files;
    SCOPED_TRACE(entry.path().string());
    Scenario s;
    ASSERT_NO_THROW(s = scenario_from_file(entry.path().string()));
    EXPECT_FALSE(expand(s).empty());
    EXPECT_EQ(s.name.rfind("exp-", 0), 0u) << "experiment names start with exp-";
  }
  EXPECT_GE(files, 12u);
}

/// FNV-1a over every TrialConfig field in declaration order (strings
/// length-prefixed, doubles by bit pattern).  Extend it when TrialConfig
/// gains a field.
std::uint64_t trial_list_digest(const std::vector<TrialConfig>& trials) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto word = [&](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  };
  const auto real = [&](double d) { word(std::bit_cast<std::uint64_t>(d)); };
  const auto text = [&](std::string_view s) {
    word(s.size());
    for (const char ch : s) byte(static_cast<unsigned char>(ch));
  };
  for (const TrialConfig& t : trials) {
    word(t.config_index);
    word(t.trial_index);
    word(static_cast<std::uint64_t>(t.algo));
    word(static_cast<std::uint64_t>(t.model));
    word(static_cast<std::uint64_t>(t.family));
    word(t.n);
    real(t.delta);
    real(t.c);
    word(static_cast<std::uint64_t>(t.merge));
    word(t.machines);
    word(t.bandwidth);
    text(t.delay_dist);
    real(t.drop_prob);
    text(t.crash_schedule);
    text(t.reliability);
    text(t.rto);
    word(t.max_rounds);
    word(static_cast<std::uint64_t>(t.node_stats));
    word(t.graph_seed);
    word(t.algo_seed);
  }
  return h;
}

// The presets are frozen: a committed baseline is only comparable with a run
// of the same trials.  Each entry is (trial count, trial_list_digest) of the
// grid the baselines under bench/baselines/ were recorded from.  Changing a
// preset means a new file with a new name and a new baseline, never an edit.
TEST(Experiments, EveryBenchPresetIsFrozen) {
  const std::map<std::string, std::pair<std::size_t, std::uint64_t>> frozen = {
      {"comparison", {10, 0xa29df14d02f37d5dULL}},
      {"comparison-1k", {15, 0x76a18592a803e0deULL}},
      {"dhc2-grid", {18, 0x02fe37048b09a523ULL}},
      {"kmachine_sweep", {16, 0x7135b4bb21c45651ULL}},
      {"mem-probe-full", {1, 0xc1c260c9a072fcc0ULL}},
      {"mem-probe-streaming", {1, 0xb55be23f2708574dULL}},
      {"fault_sweep", {60, 0x3260719eb3bc7b6bULL}},
      {"mem-flatten", {1, 0x059305df6326b295ULL}},
      {"perf-smoke", {10, 0x7639890a1fd70991ULL}},
  };
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(DHC_BENCH_PRESETS_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ++files;
    SCOPED_TRACE(entry.path().string());
    Scenario s;
    ASSERT_NO_THROW(s = scenario_from_file(entry.path().string()));
    EXPECT_EQ(s.name, entry.path().stem().string()) << "a preset is named after its file";
    const auto it = frozen.find(s.name);
    ASSERT_NE(it, frozen.end()) << "preset '" << s.name << "' has no recorded digest";
    const auto trials = expand(s);
    EXPECT_EQ(trials.size(), it->second.first);
    EXPECT_EQ(trial_list_digest(trials), it->second.second) << "preset '" << s.name
                                                             << "' no longer expands to "
                                                                "its frozen trial list";
  }
  EXPECT_EQ(files, frozen.size());
}

}  // namespace
}  // namespace dhc::runner
