#include "core/result.h"

namespace dhc::core {

void finish_result(Result& r, const graph::Graph& g, const std::string& failure,
                   const std::function<graph::CycleIncidence()>& cycle) {
  if (r.metrics.hit_round_limit) {
    r.failure_reason = "round limit exceeded";
    return;
  }
  if (!failure.empty()) {
    r.failure_reason = failure;
    return;
  }
  r.cycle = cycle();
  const auto verdict = graph::verify_cycle_incidence(g, r.cycle);
  if (!verdict.ok()) {
    r.failure_reason = "final cycle invalid: " + *verdict.failure;
    return;
  }
  r.success = true;
}

}  // namespace dhc::core
