// Shared result type for the distributed Hamiltonian-cycle algorithms.
//
// Every solver (DRA, DHC1, DHC2, Upcast, CollectAll) reports through this
// struct: outcome, the cycle in the paper's per-node incident-edge form, the
// CONGEST cost metrics, and algorithm-specific counters for the experiment
// harness.  Randomized failure is a value, not an exception — callers decide
// whether a failed trial is acceptable (success-probability experiments
// count them on purpose).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "congest/metrics.h"
#include "graph/graph.h"
#include "graph/hamiltonian.h"

namespace dhc::congest {
class FaultPlan;       // congest/fault_plan.h
class MessageObserver;  // congest/network.h
}  // namespace dhc::congest

namespace dhc::core {

struct Result {
  bool success = false;
  std::string failure_reason;

  /// The paper's output convention (§I-A): each node's two HC-incident
  /// edges.  Populated (and verified by callers) only on success.
  graph::CycleIncidence cycle;

  /// CONGEST cost of the run (rounds, messages, bits, memory, balance).
  congest::Metrics metrics;

  /// Algorithm-specific counters, e.g. "steps", "rotations",
  /// "wrong_port_rejects", "merge_levels", "root_solve_steps".  The runner
  /// moves this map into its TrialResult (one map per trial — don't copy).
  std::map<std::string, double> stats;

  /// Algorithm-specific series, e.g. DHC2's "bridges_per_level".
  std::map<std::string, std::vector<double>> series;

  double stat(const std::string& key) const {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
  }
};

/// A CONGEST solver as the execution backends drive it: run a protocol over
/// `g` from `seed` with `observer` attached, `shards` simulator shards (0 =
/// the DHC_SHARDS environment default; bitwise-neutral), and an optional
/// fault plan (nullptr = synchronous; non-null switches the simulator to the
/// async delivery regime — the `--model=async` backend), returning the
/// solver's Result.  kmachine/kmachine.h adapts the registered solvers; any
/// lambda with this shape works too.
using CongestAlgorithm = std::function<Result(
    const graph::Graph& g, std::uint64_t seed, congest::MessageObserver* observer,
    std::uint32_t shards, const congest::FaultPlan* faults)>;

/// The shared end of every CONGEST solver's run: classifies a finished
/// `r` (metrics already filled) in a fixed order — the round limit, then the
/// protocol's own `failure` ("" = none), then verify_cycle_incidence on the
/// cycle that `cycle()` builds — and sets success / failure_reason / cycle.
/// `cycle` is called only when the first two checks pass, so the cycle stays
/// empty on those failures; a cycle the verifier rejects is kept.
void finish_result(Result& r, const graph::Graph& g, const std::string& failure,
                   const std::function<graph::CycleIncidence()>& cycle);

}  // namespace dhc::core
