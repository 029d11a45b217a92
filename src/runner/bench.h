// Perf-regression harness: benchmark presets and the BENCH_congest artifact.
//
// `dhc_run --bench=FILE,...` runs each preset — a frozen scenario file under
// bench/presets/, named after its file — on the trial-runner worker pool and
// records simulator *throughput* — wall time, trials/sec, messages/sec — plus
// the process peak RSS, as machine-readable JSON (BENCH_congest.json).  Every
// performance PR is measured against the previous artifact in the same
// format; the first baseline, captured from the pre-arena simulator, lives in
// bench/baselines/BENCH_congest_pre.json.
//
// Presets are frozen on purpose: a preset whose scenario drifts between
// commits measures nothing.  Add new preset files instead of editing old
// ones; runner_experiments_test pins every file's expanded trial list.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario.h"
#include "runner/trial_runner.h"

namespace dhc::runner {

/// One preset's measured throughput.
struct BenchMeasurement {
  std::string name;
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  /// The arbitrated thread/shard split this preset actually ran with
  /// (resolve_parallelism of the preset's trial count against the options) —
  /// recorded per preset because presets differ in trial count.
  unsigned threads = 1;
  std::uint32_t shards = 1;
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;
  /// Total CONGEST messages simulated across all trials and the resulting
  /// simulator throughput — the most layout-sensitive number here.
  std::uint64_t messages_total = 0;
  /// messages_total minus reliable-overlay retransmit/ack traffic (async
  /// presets; identical to messages_total everywhere else).  The bench gate
  /// compares this one: it pins the solver workload while letting RTO tuning
  /// change the overlay traffic.
  std::uint64_t payload_messages_total = 0;
  double messages_per_sec = 0.0;
  /// Peak RSS of this preset alone (VmHWM, reset via /proc/self/clear_refs
  /// before the preset runs).  Falls back to the monotone getrusage maximum
  /// on systems without the proc interface.
  long rss_peak_kb = 0;
  /// Max over trials of the logical in-flight message high-water mark
  /// (Metrics::arena_bytes_peak) — 0 for presets without a CONGEST network
  /// (sequential / cre).  Deterministic, unlike rss_peak_kb.
  std::uint64_t arena_bytes_peak = 0;
  /// The preset's per-node accounting mode (its node_stats key) — the knob
  /// the mem-probe preset pair varies, so the artifact is self-describing.
  std::string node_stats = "full";
  /// Mean rounds per phase label over all trials (the runner's
  /// phase_<label>_rounds stats) — the per-preset phase/wall breakdown.
  std::map<std::string, double> phase_rounds_mean;
};

/// Expands and runs one preset scenario, recorded under its name, timing the
/// run_trials() call only (scenario expansion and artifact writing are
/// excluded).
BenchMeasurement run_bench_preset(const Scenario& preset, const RunnerOptions& opt);

/// BENCH_congest.json: {"bench": "congest", "schema": 5, "threads": T,
/// "shards": S, "scenarios": [...]} where threads/shards are the requested
/// options (shards 0 = auto) and every scenario records the resolved
/// per-preset split, its node_stats mode, and a "phases" map of mean rounds
/// per phase label.  Field order is fixed so runs diff cleanly.  Schema 5
/// renames peak_rss_kb to rss_peak_kb (matching the per-trial stat) and adds
/// the per-preset arena_bytes_peak.
void write_bench_json(std::ostream& os, const std::vector<BenchMeasurement>& measurements,
                      unsigned threads, std::uint32_t shards);

/// Current process peak RSS in kilobytes (getrusage), 0 if unavailable.
long current_peak_rss_kb();

}  // namespace dhc::runner
