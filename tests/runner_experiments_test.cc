// Every checked-in experiment (experiments/*.scn) parses, with its claims,
// and expands to a non-empty trial list.
#include <gtest/gtest.h>

#include <filesystem>

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

}  // namespace
}  // namespace dhc::runner
