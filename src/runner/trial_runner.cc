#include "runner/trial_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "async/async.h"
#include "congest/fault_plan.h"
#include "core/dhc2.h"
#include "core/sequential.h"
#include "core/sequential_linear.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "kmachine/kmachine.h"
#include "runner/bench.h"
#include "support/rng.h"
#include "support/worker_pool.h"
#include "trace/recorder.h"

namespace dhc::runner {

graph::Graph make_trial_instance(const TrialConfig& t) {
  support::Rng rng(t.graph_seed);
  const double p = graph::edge_probability(t.n, t.c, t.delta);  // clamped to 1 by the callee
  switch (t.family) {
    case GraphFamily::kGnp:
      return graph::gnp(t.n, p, rng);
    case GraphFamily::kGnm: {
      const double pairs = static_cast<double>(t.n) * (t.n - 1) / 2.0;
      const auto m = static_cast<std::uint64_t>(std::llround(p * pairs));
      return graph::gnm(t.n, std::min<std::uint64_t>(m, static_cast<std::uint64_t>(pairs)), rng);
    }
    case GraphFamily::kRegular: {
      // Match the G(n, p) expected degree, adjusted to a feasible even-sum
      // degree sequence (configuration model needs n·d even and d < n).
      auto d = static_cast<std::uint32_t>(std::llround(p * (t.n - 1)));
      d = std::max<std::uint32_t>(d, 3);
      d = std::min<std::uint32_t>(d, t.n - 1);
      if ((static_cast<std::uint64_t>(t.n) * d) % 2 != 0) {
        d = d + 1 < t.n ? d + 1 : d - 1;
      }
      return graph::random_regular(t.n, d, rng);
    }
    case GraphFamily::kPowerlaw: {
      // Chung–Lu with the paper-standard power-law exponent β = 2.5, scaled
      // to the G(n, p) expected average degree so (c, δ) sweeps stay
      // density-comparable across families.
      const double average_degree = std::max(p * (t.n - 1), 1.0);
      const auto weights = graph::power_law_weights(t.n, /*beta=*/2.5, average_degree);
      return graph::chung_lu(weights, rng);
    }
  }
  throw std::logic_error("unreachable graph family");
}

namespace {

// Moves the per-algorithm stats map (heap-allocated string keys, one map
// per trial) and failure string into the TrialResult instead of copying
// them; everything else on `r` — in particular `r.cycle`, which callers
// verify afterwards — is left untouched.
void fill_from_result(TrialResult& out, core::Result& r) {
  out.success = r.success;
  out.failure_reason = std::move(r.failure_reason);
  out.rounds = static_cast<double>(r.metrics.rounds);
  out.messages = static_cast<double>(r.metrics.messages);
  out.bits = static_cast<double>(r.metrics.bits);
  out.peak_memory = static_cast<double>(r.metrics.max_node_peak_memory());
  out.barriers = static_cast<double>(r.metrics.barrier_count);
  out.accounted_rounds = static_cast<double>(r.metrics.accounted_rounds());
  out.stats = std::move(r.stats);

  // Observability passthrough: the barrier/phase accounting and the per-node
  // sent-distribution digest become stat_ columns in every artifact.
  out.stats["barrier_count"] = static_cast<double>(r.metrics.barrier_count);
  out.stats["accounted_rounds"] = static_cast<double>(r.metrics.accounted_rounds());
  for (const auto& [label, from_round] : r.metrics.phase_marks) {
    const std::string key = "phase_" + label + "_rounds";
    if (out.stats.contains(key)) continue;  // repeated labels: one summed entry
    out.stats[key] = static_cast<double>(r.metrics.phase_rounds(label));
  }
  if (r.metrics.sent_summary.count > 0) {
    out.stats["node_sent_p50"] = r.metrics.sent_summary.p50;
    out.stats["node_sent_p95"] = r.metrics.sent_summary.p95;
    out.stats["node_sent_p99"] = r.metrics.sent_summary.p99;
  }
  // Logical in-flight message high-water mark (congest/metrics.h): a count of
  // messages × sizeof(Message), never allocator capacity, so it is bitwise
  // identical across thread counts and shard counts.
  out.stats["arena_bytes_peak"] = static_cast<double>(r.metrics.arena_bytes_peak);
}

// Instance facts recorded for every trial, whatever the model or solver;
// must run *after* fill_from_result (which replaces the stats map).
void add_instance_stats(TrialResult& out, const graph::Graph& g, const TrialConfig& t) {
  out.stats["graph_m"] = static_cast<double>(g.m());
  out.stats["graph_connected"] = graph::is_connected(g) ? 1.0 : 0.0;
  out.stats["mean_degree"] = t.n > 0 ? 2.0 * static_cast<double>(g.m()) / t.n : 0.0;
}

void verify_incidence(TrialResult& out, const graph::Graph& g,
                      const graph::CycleIncidence& cycle) {
  if (!out.success) return;
  const auto v = graph::verify_cycle_incidence(g, cycle);
  if (!v.ok()) {
    out.success = false;
    out.failure_reason = "verifier: " + *v.failure;
  }
}

// The adapter that runs a trial's CONGEST solver: the algorithm table
// (kmachine::algorithm_by_name) with the runner's hooks attached.  Only
// dhc2 takes per-trial algorithm parameters (delta, merge strategy).  All
// three execution models share this adapter, so a congest, a k-machine and
// an async run of the same cell can never drift apart.
core::CongestAlgorithm congest_algorithm_for(const TrialConfig& t,
                                                 const congest::EngineHooks& hooks) {
  if (t.algo == Algorithm::kDhc2) {
    core::Dhc2Config cfg;
    static_cast<congest::EngineHooks&>(cfg) = hooks;
    cfg.delta = t.delta;
    cfg.merge_strategy = t.merge;
    return kmachine::dhc2_algorithm(cfg);
  }
  return kmachine::algorithm_by_name(to_string(t.algo), hooks);
}

// k-machine pricing (src/kmachine): the headline `rounds` are the converted
// k-machine rounds; the raw CONGEST rounds and the pricing report land in
// stats.
void add_kmachine_stats(TrialResult& out, const kmachine::KMachineReport& report) {
  out.rounds = static_cast<double>(report.kmachine_rounds);
  out.stats["congest_rounds"] = static_cast<double>(report.congest_rounds);
  out.stats["kmachine_rounds"] = static_cast<double>(report.kmachine_rounds);
  out.stats["cross_messages"] = static_cast<double>(report.cross_messages);
  out.stats["local_messages"] = static_cast<double>(report.local_messages);
  out.stats["busiest_link_peak"] = static_cast<double>(report.busiest_link_peak);
}

// Async fault accounting (src/async): faulted runs may legitimately fail
// (hit_round_limit, invalid cycle), so the stats explain *why*.
void add_async_stats(TrialResult& out, const async::AsyncReport& report) {
  // A round-limit failure is ambiguous on its own: a quiescent network means
  // the protocol *stalled* (e.g. a lost message nobody re-sends), while
  // pending traffic means it was still *live* (delay-induced livelock).
  // Suffix the reason so sweeps can tell them apart without reading traces.
  if (report.hit_round_limit) {
    out.failure_reason += report.round_limit_live ? " (live)" : " (stalled)";
  }
  out.stats["delayed_messages"] = static_cast<double>(report.delayed_messages);
  out.stats["dropped_messages"] = static_cast<double>(report.dropped_messages);
  out.stats["crash_dropped_messages"] = static_cast<double>(report.crash_dropped_messages);
  out.stats["crashed_steps"] = static_cast<double>(report.crashed_steps);
  out.stats["crashed_nodes"] = static_cast<double>(report.crashed_nodes);
  out.stats["crashed_rejoins"] = static_cast<double>(report.crashed_rejoins);
  out.stats["retransmits"] = static_cast<double>(report.retransmits);
  out.stats["dup_suppressed"] = static_cast<double>(report.dup_suppressed);
  out.stats["acks_sent"] = static_cast<double>(report.acks_sent);
  out.stats["payload_messages"] = static_cast<double>(report.payload_messages);
  out.stats["hit_round_limit"] = report.hit_round_limit ? 1.0 : 0.0;
  out.stats["round_limit_live"] = report.round_limit_live ? 1.0 : 0.0;
}

// Runs a CONGEST solver under the trial's execution model: plain CONGEST,
// priced by the k-machine backend (a random vertex partition over
// t.machines machines seeded from algo_seed, per-link bandwidth
// t.bandwidth), or under the async backend's seed-deterministic delays,
// drops and crash windows.
void run_congest_trial(TrialResult& out, const graph::Graph& g, const TrialConfig& t,
                       const TrialOptions& opt, trace::TraceRecorder* rec) {
  congest::EngineHooks hooks;
  hooks.trace = rec;
  hooks.node_stats = t.node_stats;
  const core::CongestAlgorithm algo = congest_algorithm_for(t, hooks);

  core::Result r;
  kmachine::KMachineReport priced;
  async::AsyncReport faulted;
  switch (t.model) {
    case ExecutionModel::kCongest:
      r = algo(g, t.algo_seed, /*observer=*/nullptr, opt.shards, /*faults=*/nullptr);
      break;
    case ExecutionModel::kKMachine: {
      kmachine::KMachineConfig kcfg;
      kcfg.k = t.machines;
      kcfg.bandwidth = t.bandwidth;
      kcfg.partition_seed = t.algo_seed;
      kcfg.shards = opt.shards;
      kcfg.trace = rec;
      auto outcome = kmachine::run_kmachine(algo, g, t.algo_seed, kcfg);
      r = std::move(outcome.result);
      priced = outcome.report;
      break;
    }
    case ExecutionModel::kAsync: {
      async::AsyncConfig acfg;
      acfg.delay = congest::DelaySpec::parse(t.delay_dist);
      acfg.drop_prob = t.drop_prob;
      acfg.crash = congest::CrashSpec::parse(t.crash_schedule);
      acfg.max_rounds = t.max_rounds;
      acfg.shards = opt.shards;
      acfg.reliability = congest::ReliabilitySpec::parse(t.reliability);
      acfg.rto = t.rto.empty() ? congest::RtoSpec{} : congest::RtoSpec::parse(t.rto);
      auto outcome = async::run_async(algo, g, t.algo_seed, acfg);
      r = std::move(outcome.result);
      faulted = outcome.report;
      break;
    }
  }
  if (rec != nullptr) rec->finalize(r.metrics);
  fill_from_result(out, r);
  if (t.model == ExecutionModel::kKMachine) add_kmachine_stats(out, priced);
  if (t.model == ExecutionModel::kAsync) add_async_stats(out, faulted);
  if (opt.verify) verify_incidence(out, g, r.cycle);
}

// The sequential oracles: rotation (kSequential) and the linear-space cre.
// Same seed discipline, so a sequential cell pairs with any CONGEST cell
// that shares (family, n, delta, c, t).
void run_sequential_trial(TrialResult& out, const graph::Graph& g, const TrialConfig& t,
                          bool verify) {
  const auto fill = [&](const auto& r) {
    out.success = r.success;
    out.failure_reason = r.failure_reason;
    out.rounds = static_cast<double>(r.stats.steps);
    out.stats["steps"] = static_cast<double>(r.stats.steps);
    out.stats["extensions"] = static_cast<double>(r.stats.extensions);
    out.stats["rotations"] = static_cast<double>(r.stats.rotations);
    if (out.success && verify) {
      const auto v = graph::verify_cycle_order(g, r.cycle);
      if (!v.ok()) {
        out.success = false;
        out.failure_reason = "verifier: " + *v.failure;
      }
    }
  };
  support::Rng rng(t.algo_seed);
  if (t.algo == Algorithm::kCre) {
    const auto r = core::cre_hamiltonian_cycle(g, rng);
    fill(r);
    out.stats["resamples"] = static_cast<double>(r.stats.resamples);
  } else {
    fill(core::rotation_hamiltonian_cycle(g, rng));
  }
}

TrialResult run_trial_unchecked(const TrialConfig& t, const TrialOptions& opt) {
  TrialResult out;
  const graph::Graph g = make_trial_instance(t);

  // The sequential oracles have no network to tap; everything else records
  // when a trace directory is set.
  const bool tracing = !opt.trace_dir.empty() && has_congest_execution(t.algo);
  trace::TraceRecorder recorder;
  trace::TraceRecorder* rec = tracing ? &recorder : nullptr;
  if (rec != nullptr) {
    trace::TraceMeta meta;
    meta.algo = to_string(t.algo);
    meta.model = to_string(t.model);
    meta.family = to_string(t.family);
    meta.merge = to_string(t.merge);
    meta.n = t.n;
    meta.m = g.m();
    meta.delta = t.delta;
    meta.c = t.c;
    meta.graph_seed = t.graph_seed;
    meta.algo_seed = t.algo_seed;
    meta.machines = t.machines;
    meta.bandwidth = t.bandwidth;
    meta.shards = opt.shards != 0 ? opt.shards : congest::default_shards();
    meta.node_stats = congest::to_string(t.node_stats);
    meta.config_index = t.config_index;
    meta.trial_index = t.trial_index;
    recorder.set_meta(std::move(meta));
  }

  if (has_congest_execution(t.algo)) {
    run_congest_trial(out, g, t, opt, rec);
  } else if (t.model == ExecutionModel::kCongest) {
    run_sequential_trial(out, g, t, opt.verify);
  } else {
    out.failure_reason = to_string(t.algo) + " has no CONGEST execution to run under model = " +
                         to_string(t.model);
  }

  add_instance_stats(out, g, t);

  if (rec != nullptr && rec->finalized()) {
    rec->set_outcome(out.success, out.failure_reason);
    const std::string path = opt.trace_dir + "/trace_c" + std::to_string(t.config_index) +
                             "_t" + std::to_string(t.trial_index) + ".ndjson";
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    rec->write_ndjson(os);
    os.flush();
    if (!os) throw std::runtime_error("cannot write trace file '" + path + "'");
    out.trace_file = path;
  }
  return out;
}

}  // namespace

TrialResult run_trial(const TrialConfig& t, const TrialOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  TrialResult out;
  try {
    out = run_trial_unchecked(t, opt);
  } catch (const std::exception& e) {
    out = TrialResult{};
    out.success = false;
    out.failure_reason = std::string("exception: ") + e.what();
  }
  if (opt.track_rss) {
    // Process-wide peak at trial end: monotone, so under trial-parallelism
    // the last trial's value is the run's peak.  Opt-in because it is not
    // deterministic (see RunnerOptions::track_rss).
    out.stats["rss_peak_kb"] = static_cast<double>(current_peak_rss_kb());
  }
  out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

ResolvedParallelism resolve_parallelism(std::size_t trial_count, const RunnerOptions& opt) {
  const unsigned hw = support::WorkerPool::hardware_lanes();
  // Clamp the requested budget against the hardware *before* the
  // trial-count min: asking for 64 threads on an 8-way box runs 8 of them,
  // and the artifacts record the 8 that actually ran.
  const unsigned budget = opt.threads == 0 ? hw : std::max(1u, std::min(opt.threads, hw));

  ResolvedParallelism r;
  if (trial_count == 0) {
    // Nothing to run: report the neutral 1×1 split instead of falling into
    // the few-huge-trials branch, which would hand the whole budget to the
    // shard axis of trials that don't exist (and record that fiction in
    // bench artifacts).
    return r;
  }
  if (opt.shards != 0) {
    // Explicit shard count: honored verbatim — the shard *partition* is a
    // determinism knob, not a thread count; the in-trial pool caps its own
    // workers at the hardware.
    r.shards = opt.shards;
  } else if (congest::default_shards() != 1) {
    // A DHC_SHARDS environment default is as explicit as a flag (it is how
    // the CI shard matrix drives everything sharded).
    r.shards = congest::default_shards();
  } else if (trial_count >= budget) {
    // Many small trials: trial-parallelism uses the whole budget.
    r.shards = 1;
  } else {
    // Few huge trials: split the budget, leftover lanes become shards.
    r.shards = budget / static_cast<unsigned>(std::max<std::size_t>(trial_count, 1));
  }
  r.shards = std::max<std::uint32_t>(r.shards, 1);

  // Oversubscription clamp: concurrent trials shrink so that
  // trials × min(shards, budget) never exceeds the budget.
  const unsigned lanes_per_trial = std::min<unsigned>(r.shards, budget);
  r.threads = std::max(1u, budget / lanes_per_trial);
  if (trial_count > 0) {
    r.threads = std::min<unsigned>(r.threads, static_cast<unsigned>(trial_count));
  }
  return r;
}

std::vector<TrialResult> run_trials(const std::vector<TrialConfig>& trials,
                                    const RunnerOptions& opt) {
  return run_trials(trials, opt, resolve_parallelism(trials.size(), opt));
}

std::vector<TrialResult> run_trials(const std::vector<TrialConfig>& trials,
                                    const RunnerOptions& opt,
                                    const ResolvedParallelism& par) {
  std::vector<TrialResult> results(trials.size());
  if (trials.empty()) return results;

  // Workers claim trial indices from the pool's shared cursor and write into
  // their own slot; result content depends only on (TrialConfig, verify) —
  // the shard count is behavior-neutral by construction — so neither the
  // claim order nor the thread/shard split can affect aggregates.
  TrialOptions topt;
  topt.verify = opt.verify;
  topt.shards = par.shards;
  topt.trace_dir = opt.trace_dir;
  topt.track_rss = opt.track_rss;
  support::WorkerPool pool(par.threads);
  pool.run(trials.size(), [&](std::size_t i) {
    results[i] = run_trial(trials[i], topt);
  });
  return results;
}

}  // namespace dhc::runner
