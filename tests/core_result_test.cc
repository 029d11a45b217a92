// Tests for the shared result epilogue of the CONGEST solvers
// (core::finish_result): the round limit beats the protocol's own failure,
// which beats the verifier; the cycle stays empty on the first two.
#include "core/result.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace dhc::core {
namespace {

// A 4-node incidence that names non-edges of the 4-cycle 0-1-2-3.
graph::CycleIncidence crossed_incidence() {
  graph::CycleIncidence inc;
  inc.neighbors_of = {{{2, 1}}, {{0, 3}}, {{0, 3}}, {{1, 2}}};
  return inc;
}

struct Epilogue {
  Result result;
  int cycle_calls = 0;
};

Epilogue finish(bool hit_round_limit, const std::string& failure,
                const graph::CycleIncidence& cycle) {
  Epilogue e;
  e.result.metrics.hit_round_limit = hit_round_limit;
  finish_result(e.result, graph::cycle_graph(4), failure, [&] {
    ++e.cycle_calls;
    return cycle;
  });
  return e;
}

TEST(FinishResult, RoundLimitBeatsProtocolFailure) {
  const Epilogue e = finish(true, "protocol gave up", crossed_incidence());
  EXPECT_FALSE(e.result.success);
  EXPECT_EQ(e.result.failure_reason, "round limit exceeded");
  EXPECT_TRUE(e.result.cycle.neighbors_of.empty());
  EXPECT_EQ(e.cycle_calls, 0);
}

TEST(FinishResult, ProtocolFailureBeatsVerifier) {
  const Epilogue e = finish(false, "protocol gave up", crossed_incidence());
  EXPECT_FALSE(e.result.success);
  EXPECT_EQ(e.result.failure_reason, "protocol gave up");
  EXPECT_TRUE(e.result.cycle.neighbors_of.empty());
  EXPECT_EQ(e.cycle_calls, 0);
}

TEST(FinishResult, VerifierRejectsAndKeepsTheCycle) {
  const Epilogue e = finish(false, "", crossed_incidence());
  EXPECT_FALSE(e.result.success);
  EXPECT_EQ(e.result.failure_reason.rfind("final cycle invalid: ", 0), 0u)
      << e.result.failure_reason;
  EXPECT_EQ(e.result.cycle.neighbors_of, crossed_incidence().neighbors_of);
  EXPECT_EQ(e.cycle_calls, 1);
}

TEST(FinishResult, VerifiedCycleSucceeds) {
  graph::CycleIncidence ring;
  ring.neighbors_of = {{{3, 1}}, {{0, 2}}, {{1, 3}}, {{2, 0}}};
  const Epilogue e = finish(false, "", ring);
  EXPECT_TRUE(e.result.success);
  EXPECT_TRUE(e.result.failure_reason.empty());
  EXPECT_EQ(e.result.cycle.neighbors_of, ring.neighbors_of);
}

}  // namespace
}  // namespace dhc::core
