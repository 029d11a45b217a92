// dhc_perfbench — the measuring program of the repository benchmark.
//
//   dhc_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--spans=PATH]
//   dhc_perfbench --list-trials --workload=NAME --seed=N
//
// Workloads (see perfbench/README.md for why each was chosen):
//   dense-congest    dhc1, dhc2, turau, upcast on G(4096, δ=½, c=2.5)
//   sparse-kmachine  dra at δ=1 and dhc2 at δ=¾ (c=4, n=2048), k=16 machines
//   async-lossy      dra, dhc1, dhc2, turau, upcast on G(512, δ=½, c=2.5)
//                    with fixed:1 delays, 2% drops, reliability=ack
//
// The seed becomes the scenarios' base_seed; libdhc only ever sees the
// expanded trial list.  Trials are grouped into instances (one per trial
// index), and each workload has a fixed number of them, so a seed fixes the
// trials a run attempts and the ones that fail.  Everything runs
// single-threaded.
//
// --trace=0 runs every instance once through runner::run_trials, the dhc_run
// path, then repeats them in order while the next repeat fits in --seconds;
// each repeat must reproduce its first execution's counters.  It reports the
// end-to-end metrics over all executions.  --trace=1 runs the instances (only
// the first on dense-congest and sparse-kmachine) once untraced and once call by call — graph, solver, k-machine or async
// backend, verifier — inside spans recorded by this program, times the
// engine with probe protocols, and reports per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, plus the per-trial deterministic counters ("trials") that
// perfbench/run.py compares with the pinned values, and "errors".
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/async.h"
#include "congest/fault_plan.h"
#include "congest/network.h"
#include "graph/algorithms.h"
#include "graph/hamiltonian.h"
#include "kmachine/kmachine.h"
#include "probes.h"
#include "runner/aggregator.h"
#include "runner/bench.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"
#include "spans.h"
#include "support/rng.h"
#include "support/worker_pool.h"
#include "trace/recorder.h"

namespace perfbench {
namespace {

using dhc::runner::Algorithm;
using dhc::runner::ExecutionModel;
using dhc::runner::Scenario;
using dhc::runner::TrialConfig;
using dhc::runner::TrialResult;
using Clock = std::chrono::steady_clock;

/// Set-ups per batch: the first kSetupWarmups are discarded, the rest are
/// timed; setup_s is the median of every batch's timed set-ups.
constexpr int kSetupWarmups = 5;
constexpr int kSetupRepeats = 21;
/// Flood probe: enough extra rounds for about this many messages.
constexpr double kFloodTargetMessages = 8e6;
/// Walk probe: tokens and hops per token.
constexpr std::uint32_t kWalkTokens = 8;
constexpr std::uint64_t kWalkHops = 100'000;

const std::vector<std::string> kCoreAlgos = {"dra", "dhc1", "dhc2", "turau", "upcast"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<Scenario> cells;
};

/// Instances per run, sized so that one pass takes about 20 s of the
/// 35 s runs on a shared 4-vCPU Xeon VM: an instance takes 8-12 s on
/// dense-congest, 3-16 s on sparse-kmachine and 2-3.5 s on async-lossy.
std::uint64_t instances_per_run(const std::string& workload) {
  if (workload == "dense-congest") return 2;
  if (workload == "sparse-kmachine") return 3;
  return 8;
}

/// Instances a traced run executes, the first of the end-to-end run's.  A
/// traced trial solves three times (run_trials, the traced backend call and
/// the plain comparison solve), so the workloads whose instances take 8-16 s
/// untraced trace only their first one.
std::uint64_t traced_instances(const std::string& workload) {
  return workload == "async-lossy" ? instances_per_run(workload) : 1;
}

Scenario base_cell(std::uint64_t seed, std::uint64_t instances) {
  Scenario s;
  s.seeds = instances;
  s.base_seed = seed;
  return s;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w{name, {}};
  const std::uint64_t instances = instances_per_run(name);
  if (name == "dense-congest") {
    Scenario s = base_cell(seed, instances);
    s.name = name;
    s.algos = {Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kTurau, Algorithm::kUpcast};
    s.sizes = {4096};
    s.deltas = {0.5};
    s.cs = {2.5};
    w.cells.push_back(s);
  } else if (name == "sparse-kmachine") {
    for (const auto& [algo, delta] : {std::pair{Algorithm::kDra, 1.0}, std::pair{Algorithm::kDhc2, 0.75}}) {
      Scenario s = base_cell(seed, instances);
      s.name = name;
      s.algos = {algo};
      s.model = ExecutionModel::kKMachine;
      s.machines = {16};
      s.sizes = {2048};
      s.deltas = {delta};
      s.cs = {4.0};
      w.cells.push_back(s);
    }
  } else if (name == "async-lossy") {
    Scenario s = base_cell(seed, instances);
    s.name = name;
    s.algos = {Algorithm::kDra, Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kTurau,
               Algorithm::kUpcast};
    s.model = ExecutionModel::kAsync;
    s.sizes = {512};
    s.deltas = {0.5};
    s.cs = {2.5};
    s.delay_dists = {"fixed:1"};
    s.drop_probs = {0.02};
    s.reliabilities = {"ack"};
    s.max_rounds = 200'000;
    w.cells.push_back(s);
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected dense-congest|sparse-kmachine|async-lossy)");
  }
  return w;
}

/// instances[j] holds every cell's trial with trial_index j; config indices
/// are made unique across cells.
using Instances = std::vector<std::vector<TrialConfig>>;

Instances expand_instances(const Workload& w) {
  Instances out(instances_per_run(w.name));
  std::size_t config_offset = 0;
  for (const Scenario& cell : w.cells) {
    std::size_t configs = 0;
    for (TrialConfig& t : dhc::runner::expand(cell)) {
      configs = std::max(configs, t.config_index + 1);
      t.config_index += config_offset;
      out[t.trial_index].push_back(t);
    }
    config_offset += configs;
  }
  return out;
}

dhc::runner::RunnerOptions runner_options() {
  dhc::runner::RunnerOptions opt;
  opt.threads = 1;
  opt.shards = 1;
  opt.verify = true;
  return opt;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One trial's deterministic counters, as pinned by perfbench/pins.json.
struct TrialRecord {
  std::uint64_t instance = 0;
  TrialConfig cfg;
  TrialResult result;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<TrialRecord> trials;
  std::vector<std::string> errors;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double stat_or(const TrialResult& r, const std::string& key, double fallback) {
  const auto it = r.stats.find(key);
  return it == r.stats.end() ? fallback : it->second;
}

void write_trial_config(std::ostream& os, const TrialConfig& t) {
  os << "\"algo\":" << json_string(dhc::runner::to_string(t.algo))
     << ",\"model\":" << json_string(dhc::runner::to_string(t.model)) << ",\"n\":" << t.n
     << ",\"delta\":" << t.delta << ",\"c\":" << t.c << ",\"machines\":" << t.machines
     << ",\"delay_dist\":" << json_string(t.delay_dist) << ",\"drop_prob\":" << t.drop_prob
     << ",\"reliability\":" << json_string(t.reliability) << ",\"max_rounds\":" << t.max_rounds
     << ",\"config_index\":" << t.config_index << ",\"trial_index\":" << t.trial_index
     << ",\"graph_seed\":" << t.graph_seed << ",\"algo_seed\":" << t.algo_seed;
}

void write_report(std::ostream& os, const Report& r) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\":" << (r.errors.empty() ? "true" : "false") << ",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << json_string(m.name) << ":{\"value\":" << m.value
       << ",\"unit\":" << json_string(m.unit) << "}";
  }
  os << "},\"trials\":[";
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    const TrialRecord& t = r.trials[i];
    os << (i ? "," : "") << "{\"instance\":" << t.instance << ",";
    write_trial_config(os, t.cfg);
    os << ",\"success\":" << (t.result.success ? "true" : "false")
       << ",\"messages\":" << t.result.messages << ",\"rounds\":" << t.result.rounds
       << ",\"bits\":" << t.result.bits << ",\"barriers\":" << t.result.barriers
       << ",\"arena_bytes_peak\":" << stat_or(t.result, "arena_bytes_peak", 0.0)
       << ",\"failure\":" << json_string(t.result.failure_reason)
       << ",\"wall_s\":" << t.result.wall_seconds << "}";
  }
  os << "],\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) os << (i ? "," : "") << json_string(r.errors[i]);
  os << "]}\n";
}

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

std::string trial_label(const TrialConfig& t) {
  std::ostringstream os;
  os << dhc::runner::to_string(t.algo) << "/" << dhc::runner::to_string(t.model) << " n=" << t.n
     << " delta=" << t.delta << " graph_seed=" << t.graph_seed;
  return os.str();
}

bool is_defect(const TrialResult& r) {
  return starts_with(r.failure_reason, "verifier:") || starts_with(r.failure_reason, "exception:");
}

/// Records run_trials results.  Every trial that did not return a verified
/// cycle counts in runner.fail_share; the ones that failed through a defect
/// rather than the solver's own failure classes — a cycle the runner's
/// verifier rejected, or an exception it caught — also count as failed
/// operations and are named on stderr.
void record_results(Report& rep, std::uint64_t instance, const std::vector<TrialConfig>& trials,
                    const std::vector<TrialResult>& results) {
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialResult& r = results[i];
    ++rep.attempted;
    if (is_defect(r)) {
      ++rep.failed;
      std::cerr << "dhc_perfbench: failed trial " << trial_label(trials[i]) << ": "
                << r.failure_reason << "\n";
    }
    rep.trials.push_back({instance, trials[i], r});
  }
}

// ---------------------------------------------------------------------------
// End-to-end run

struct E2eTotals {
  double wall = 0.0;
  double messages = 0.0;
  double verified = 0.0;
  double dispatch = 0.0;  ///< run_trials wall outside its trials
  /// Per scenario cell: each trial's messages/s and CPU ns/message.
  std::map<std::size_t, std::vector<double>> msgs_per_s, cpu_ns_per_msg;
};

/// Runs one trial through runner::run_trials — one call per trial, so that
/// its wall and CPU time are known — and adds it to `tot`.
TrialResult run_one(const TrialConfig& t, E2eTotals& tot) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto r = std::move(dhc::runner::run_trials({t}, runner_options()).front());
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  tot.wall += wall;
  tot.messages += r.messages;
  tot.verified += r.success ? 1.0 : 0.0;
  tot.dispatch += wall - r.wall_seconds;
  if (r.messages > 0.0) {
    tot.msgs_per_s[t.config_index].push_back(r.messages / wall);
    tot.cpu_ns_per_msg[t.config_index].push_back(cpu * 1e9 / r.messages);
  }
  return r;
}

/// Geometric mean over cells of each cell's median: every solver weighs
/// the same however many messages its trials happened to send.
double cell_median_geomean(const std::map<std::size_t, std::vector<double>>& per_cell) {
  double log_sum = 0.0;
  for (const auto& [cell, values] : per_cell) log_sum += std::log(median(values));
  return per_cell.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(per_cell.size()));
}

/// Times the set-up a run does before its first trial: building the
/// scenarios, expanding them, and resolving and starting the worker pool.
double time_setup(const std::string& workload, std::uint64_t seed, Instances& inst) {
  const auto t0 = Clock::now();
  inst = expand_instances(make_workload(workload, seed));
  const auto opt = runner_options();
  const auto par = dhc::runner::resolve_parallelism(inst.front().size(), opt);
  { dhc::support::WorkerPool pool(par.threads); }
  return seconds_since(t0);
}

/// One batch of set-ups: kSetupWarmups discarded, then kSetupRepeats timed
/// into `out`.
void time_setups(const std::string& workload, std::uint64_t seed, Instances& inst,
                 std::vector<double>& out) {
  for (int i = 0; i < kSetupWarmups + kSetupRepeats; ++i) {
    const double s = time_setup(workload, seed, inst);
    if (i >= kSetupWarmups) out.push_back(s);
  }
}

bool same_execution(const TrialResult& a, const TrialResult& b) {
  return a.success == b.success && a.messages == b.messages && a.rounds == b.rounds &&
         a.bits == b.bits && a.barriers == b.barriers && a.failure_reason == b.failure_reason &&
         stat_or(a, "arena_bytes_peak", 0.0) == stat_or(b, "arena_bytes_peak", 0.0);
}

Report run_end_to_end(const std::string& workload, std::uint64_t seed, double seconds) {
  Report rep;
  Instances inst;
  std::vector<double> setups;
  time_setups(workload, seed, inst, setups);

  // A batch of set-ups precedes every trial execution, so that setup_s is a
  // median over the whole run: the host's speed drifts within seconds.
  E2eTotals tot;
  Instances spare;
  const auto execute = [&](const TrialConfig& t) {
    time_setups(workload, seed, spare, setups);
    return run_one(t, tot);
  };

  // Every instance runs once; those executions are the run's attempted
  // trials.  Repeats measure more work without changing what is attempted.
  const auto start = Clock::now();
  std::vector<std::vector<TrialResult>> first(inst.size());
  std::vector<double> instance_wall;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    const double wall_before = tot.wall;
    for (const TrialConfig& t : inst[j]) first[j].push_back(execute(t));
    record_results(rep, j, inst[j], first[j]);
    instance_wall.push_back(tot.wall - wall_before);
  }
  for (std::size_t k = 0;; ++k) {
    const std::size_t j = k % inst.size();
    if (seconds_since(start) + instance_wall[j] > seconds) break;
    for (std::size_t i = 0; i < inst[j].size(); ++i) {
      if (!same_execution(execute(inst[j][i]), first[j][i])) {
        rep.errors.push_back("a repeat diverged from its first execution: " + trial_label(inst[j][i]));
      }
    }
  }
  if (tot.messages <= 0.0) rep.errors.push_back("no messages were simulated");

  // Rates are per-cell medians over trial executions, so one trial that
  // livelocks or fails early moves them little, and the mix of cells does
  // not move them.
  rep.metrics = {
      {"msgs_per_s", cell_median_geomean(tot.msgs_per_s), "messages/s"},
      {"cpu_ns_per_msg", cell_median_geomean(tot.cpu_ns_per_msg), "ns/message"},
      {"rss_peak_mb", static_cast<double>(dhc::runner::current_peak_rss_kb()) / 1024.0, "MB"},
      {"setup_s", median(setups), "s"},
  };
  return rep;
}

// ---------------------------------------------------------------------------
// Traced run

template <class Config>
Config with_trace(dhc::trace::TraceRecorder* rec) {
  Config cfg;
  cfg.trace = rec;
  return cfg;
}

/// The solver adapter a trial runs, built the way the runner builds it: the
/// registry's default configs, except dhc2, which takes the trial's δ and
/// merge strategy.  A non-null `rec` attaches a flight recorder.
dhc::kmachine::CongestAlgorithm adapter_for(const TrialConfig& t,
                                            dhc::trace::TraceRecorder* rec = nullptr) {
  using namespace dhc;
  if (t.algo == Algorithm::kDhc2) {
    auto cfg = with_trace<core::Dhc2Config>(rec);
    cfg.delta = t.delta;
    cfg.merge_strategy = t.merge;
    return kmachine::dhc2_algorithm(cfg);
  }
  if (rec == nullptr) return kmachine::algorithm_by_name(runner::to_string(t.algo));
  switch (t.algo) {
    case Algorithm::kDra:
      return kmachine::dra_algorithm(with_trace<core::DraConfig>(rec));
    case Algorithm::kDhc1:
      return kmachine::dhc1_algorithm(with_trace<core::Dhc1Config>(rec));
    case Algorithm::kTurau:
      return kmachine::turau_algorithm(with_trace<core::TurauConfig>(rec));
    case Algorithm::kUpcast:
      return kmachine::upcast_algorithm(with_trace<core::UpcastConfig>(rec));
    default:
      throw std::invalid_argument("no traced adapter for " + runner::to_string(t.algo));
  }
}

/// Per-layer sums over the trials a traced run executed.
struct LayerTotals {
  struct Core {
    double solve_s = 0.0, messages = 0.0, rounds = 0.0, failed = 0.0;
    std::uint64_t runs = 0;
  };
  std::map<std::string, Core> core;  ///< plain CONGEST solves, by algorithm

  struct KMachine {
    std::uint64_t runs = 0;
    double run_s = 0.0, plain_s = 0.0, cross = 0.0, local = 0.0, rounds = 0.0;
  } km;  ///< k-machine backend runs
  struct Async {
    std::uint64_t runs = 0;
    double run_s = 0.0, messages = 0.0, plain_s = 0.0, plain_messages = 0.0;
    double payload = 0.0, retransmits = 0.0, acks = 0.0, dropped = 0.0, round_limit_hits = 0.0;
  } as;  ///< async backend runs

  double gen_s = 0.0, connected_s = 0.0, verify_s = 0.0, edges = 0.0;
  double trial_s = 0.0, trial_self_s = 0.0, comparison_s = 0.0;
};

/// What a traced trial produced, for the cross-check against run_trials.
struct TracedOutcome {
  bool success = false;
  double messages = 0.0;
  double rounds = 0.0;
  double plain_s = 0.0;         ///< the plain CONGEST solve's wall
  double plain_messages = 0.0;  ///< and its message count
};

/// Whether the solver returned a cycle that passes verification.  A
/// rejected cycle makes the trial a failure, as in the runner; the caller's
/// cross-check against run_trials catches any disagreement.
bool verified(const dhc::core::Result& r, const dhc::graph::Graph& g) {
  return r.success && dhc::graph::verify_cycle_incidence(g, r.cycle).ok();
}

/// Re-executes trial `t` call by call inside spans: generation, the
/// connectivity check, the solver through its model's backend (k-machine
/// and async trials also run the plain CONGEST solve of the same algorithm,
/// graph and seed, for comparison), and verification of every cycle.
TracedOutcome traced_trial(const TrialConfig& t, std::int64_t id, SpanRecorder& spans,
                           LayerTotals& acc, Report& rep) {
  using namespace dhc;
  TracedOutcome out;
  const std::string algo_name = runner::to_string(t.algo);
  const std::int32_t trial_span = spans.open("runner.trial", id);

  std::optional<graph::Graph> instance;
  acc.gen_s += spans.timed("graph.gen", [&] { instance.emplace(runner::make_trial_instance(t)); });
  const graph::Graph& g = *instance;
  acc.edges += static_cast<double>(g.m());
  acc.connected_s += spans.timed("graph.connected", [&] { (void)graph::is_connected(g); });

  const auto algo = adapter_for(t);
  core::Result plain;
  bool plain_threw = false;
  const auto solve_plain = [&] {
    try {
      plain = algo(g, t.algo_seed, nullptr, 1, nullptr);
    } catch (const std::exception&) {
      plain_threw = true;
    }
  };
  auto& core_acc = acc.core[algo_name];
  core_acc.runs += 1;

  if (t.model == ExecutionModel::kCongest) {
    out.plain_s = spans.timed("core." + algo_name + ".solve", solve_plain);
    if (!plain_threw) {
      out.messages = static_cast<double>(plain.metrics.messages);
      out.rounds = static_cast<double>(plain.metrics.rounds);
    }
    acc.verify_s += spans.timed("graph.verify", [&] { out.success = verified(plain, g); });
  } else if (t.model == ExecutionModel::kKMachine) {
    kmachine::KMachineConfig kcfg;
    kcfg.k = t.machines;
    kcfg.bandwidth = t.bandwidth;
    kcfg.partition_seed = t.algo_seed;
    kcfg.shards = 1;
    kmachine::KMachineOutcome priced;
    bool threw = false;
    const double run_s = spans.timed("kmachine.run", [&] {
      try {
        priced = kmachine::run_kmachine(algo, g, t.algo_seed, kcfg);
      } catch (const std::exception&) {
        threw = true;
      }
    });
    acc.verify_s += spans.timed("graph.verify", [&] { out.success = verified(priced.result, g); });
    out.plain_s = spans.timed("core." + algo_name + ".solve", solve_plain);
    if (!threw) {
      out.messages = static_cast<double>(priced.result.metrics.messages);
      out.rounds = static_cast<double>(priced.report.kmachine_rounds);
      acc.km.runs += 1;
      acc.km.run_s += run_s;
      acc.km.plain_s += out.plain_s;
      acc.km.cross += static_cast<double>(priced.report.cross_messages);
      acc.km.local += static_cast<double>(priced.report.local_messages);
      acc.km.rounds += static_cast<double>(priced.report.kmachine_rounds);
      if (!plain_threw && plain.metrics.messages != priced.result.metrics.messages) {
        rep.errors.push_back("k-machine pricing changed the execution: " + trial_label(t));
      }
    }
  } else {
    async::AsyncConfig acfg;
    acfg.delay = congest::DelaySpec::parse(t.delay_dist);
    acfg.drop_prob = t.drop_prob;
    acfg.crash = congest::CrashSpec::parse(t.crash_schedule);
    acfg.max_rounds = t.max_rounds;
    acfg.shards = 1;
    acfg.reliability = congest::ReliabilitySpec::parse(t.reliability);
    acfg.rto = t.rto.empty() ? congest::RtoSpec{} : congest::RtoSpec::parse(t.rto);
    async::AsyncOutcome run;
    bool threw = false;
    const double run_s = spans.timed("async.run", [&] {
      try {
        run = async::run_async(algo, g, t.algo_seed, acfg);
      } catch (const std::exception&) {
        threw = true;
      }
    });
    acc.verify_s += spans.timed("graph.verify", [&] { out.success = verified(run.result, g); });
    out.plain_s = spans.timed("core." + algo_name + ".solve", solve_plain);
    if (!threw) {
      out.messages = static_cast<double>(run.result.metrics.messages);
      out.rounds = static_cast<double>(run.result.metrics.rounds);
      acc.as.runs += 1;
      acc.as.run_s += run_s;
      acc.as.messages += out.messages;
      acc.as.plain_s += out.plain_s;
      acc.as.plain_messages += plain_threw ? 0.0 : static_cast<double>(plain.metrics.messages);
      acc.as.payload += static_cast<double>(run.report.payload_messages);
      acc.as.retransmits += static_cast<double>(run.report.retransmits);
      acc.as.acks += static_cast<double>(run.report.acks_sent);
      acc.as.dropped += static_cast<double>(run.report.dropped_messages);
      acc.as.round_limit_hits += run.report.hit_round_limit ? 1.0 : 0.0;
    }
  }

  bool plain_ok = out.success;
  if (t.model != ExecutionModel::kCongest) {
    const double verify_s = spans.timed("graph.verify", [&] { plain_ok = verified(plain, g); });
    acc.verify_s += verify_s;
    acc.comparison_s += out.plain_s + verify_s;
  }
  core_acc.solve_s += out.plain_s;
  if (!plain_threw) {
    out.plain_messages = static_cast<double>(plain.metrics.messages);
    core_acc.messages += out.plain_messages;
    core_acc.rounds += static_cast<double>(plain.metrics.rounds);
  }
  core_acc.failed += plain_ok ? 0.0 : 1.0;

  spans.close(trial_span);
  const auto& span = spans.spans()[trial_span];
  acc.trial_s += SpanRecorder::duration(span);
  acc.trial_self_s += SpanRecorder::self(span);
  return out;
}

/// Counts bytes written through it.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes_;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

struct TraceCost {
  double recorded_s = 0.0;  ///< solves with a flight recorder attached
  double plain_s = 0.0;     ///< the same solves without one
  double bytes = 0.0;       ///< NDJSON written by the recorders
};

/// Solves `t` with a flight recorder attached and writes its NDJSON to a
/// byte counter.  The recorder must not change the execution.
void trace_cost(const TrialConfig& t, const TracedOutcome& plain, SpanRecorder& spans,
                TraceCost& cost, Report& rep) {
  using namespace dhc;
  const graph::Graph g = runner::make_trial_instance(t);
  trace::TraceRecorder rec;
  trace::TraceMeta meta;
  meta.algo = runner::to_string(t.algo);
  meta.n = t.n;
  meta.m = g.m();
  rec.set_meta(meta);
  const auto algo = adapter_for(t, &rec);
  core::Result r;
  bool threw = false;
  const double recorded_s = spans.timed("trace.solve", [&] {
    try {
      r = algo(g, t.algo_seed, nullptr, 1, nullptr);
    } catch (const std::exception&) {
      threw = true;
    }
  });
  if (static_cast<double>(r.metrics.messages) != plain.plain_messages) {
    rep.errors.push_back("the flight recorder changed the execution: " + trial_label(t));
  }
  if (threw) return;
  cost.recorded_s += recorded_s;
  cost.plain_s += plain.plain_s;
  spans.timed("trace.write", [&] {
    rec.finalize(r.metrics);
    rec.set_outcome(r.success, r.failure_reason);
    CountingBuf buf;
    std::ostream os(&buf);
    rec.write_ndjson(os);
    cost.bytes += static_cast<double>(buf.bytes());
  });
}

struct ProbeCost {
  double flood_ns_per_msg = 0.0;
  double walk_ns_per_round = 0.0;
};

/// Runs both probe protocols on `g` and checks their analytic counts.
ProbeCost run_probes(const dhc::graph::Graph& g, std::uint64_t seed, SpanRecorder& spans,
                     Report& rep) {
  using namespace dhc;
  ProbeCost out;
  congest::NetworkConfig cfg;
  cfg.seed = seed;
  cfg.shards = 1;

  // The flood cost is marginal — the difference between a long and a
  // one-round flood — so network construction and the arenas' first-touch
  // growth, which a long solver run amortizes, cancel out.
  const auto flood = [&](std::uint64_t rounds) {
    congest::Metrics fm;
    const double s = spans.timed("congest.flood", [&] {
      congest::Network net(g, cfg);
      FloodProbe probe(rounds);
      fm = net.run(probe);
    });
    const std::uint64_t expected = rounds * 2 * g.m();
    if (fm.messages != expected) {
      rep.errors.push_back("flood probe sent " + std::to_string(fm.messages) +
                           " messages, expected " + std::to_string(expected));
    }
    return std::pair{s, static_cast<double>(expected)};
  };
  const double directed = std::max(2.0 * static_cast<double>(g.m()), 1.0);
  const auto extra_rounds = static_cast<std::uint64_t>(std::ceil(kFloodTargetMessages / directed));
  const auto [short_s, short_msgs] = flood(1);
  const auto [long_s, long_msgs] = flood(1 + extra_rounds);
  out.flood_ns_per_msg = ratio((long_s - short_s) * 1e9, long_msgs - short_msgs);

  // Tokens start at random nodes with enough neighbors to split a full
  // load of tokens.
  support::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::uint32_t> tokens_at(g.n(), 0);
  for (std::uint32_t placed = 0, tries = 0; placed < kWalkTokens && tries < 1'000'000; ++tries) {
    const auto v = static_cast<graph::NodeId>(rng.below(g.n()));
    if (g.neighbors(v).size() >= kWalkTokens) {
      ++tokens_at[v];
      ++placed;
    }
  }
  congest::Metrics wm;
  const double walk_s = spans.timed("congest.walk", [&] {
    congest::Network net(g, cfg);
    WalkProbe probe(tokens_at, kWalkHops);
    wm = net.run(probe);
  });
  const std::uint64_t walk_expected = kWalkTokens * kWalkHops;
  if (wm.messages != walk_expected) {
    rep.errors.push_back("walk probe sent " + std::to_string(wm.messages) + " messages, expected " +
                         std::to_string(walk_expected));
  }
  out.walk_ns_per_round = ratio(walk_s * 1e9, static_cast<double>(wm.rounds));
  return out;
}

/// Calibration trials for layers a workload does not exercise, so every
/// per-layer metric is measured in every traced run: each absent solver
/// runs plain, and the absent backends price / fault an upcast run, all on
/// G(512, δ=½, c=2.5) from the run's seed.
std::vector<TrialConfig> calibration_trials(const LayerTotals& acc, std::uint64_t seed) {
  Scenario s = base_cell(seed, 1);
  s.sizes = {512};
  s.deltas = {0.5};
  s.cs = {2.5};
  s.algos.clear();
  for (const std::string& name : kCoreAlgos) {
    if (!acc.core.contains(name)) s.algos.push_back(dhc::runner::parse_algorithm(name));
  }
  std::vector<TrialConfig> out;
  if (!s.algos.empty()) out = dhc::runner::expand(s);
  s.algos = {Algorithm::kUpcast};
  if (acc.km.runs == 0) {
    Scenario k = s;
    k.model = ExecutionModel::kKMachine;
    k.machines = {16};
    for (const auto& t : dhc::runner::expand(k)) out.push_back(t);
  }
  if (acc.as.runs == 0) {
    Scenario a = make_workload("async-lossy", seed).cells.front();
    a.seeds = 1;
    a.algos = {Algorithm::kUpcast};
    for (const auto& t : dhc::runner::expand(a)) out.push_back(t);
  }
  return out;
}

Report run_traced(const std::string& workload, std::uint64_t seed, const std::string& spans_path) {
  Report rep;
  SpanRecorder spans;
  Instances inst;
  const double expand_s = spans.timed("runner.expand", [&] {
    inst = expand_instances(make_workload(workload, seed));
  });
  inst.resize(traced_instances(workload));

  LayerTotals acc;
  E2eTotals untraced;
  TraceCost trace;
  ProbeCost probes;
  double traced_wall = 0.0;
  std::int64_t next_id = 0;
  std::vector<TrialConfig> all_trials;
  std::vector<TrialResult> all_results;
  std::set<std::uint64_t> graph_seeds_seen;
  double repeats = 0.0;

  for (std::size_t j = 0; j < inst.size(); ++j) {
    // Each trial runs untraced — the end-to-end path, for the
    // tracing-overhead comparison and the counters the traced pass must
    // reproduce — and traced, in alternating order so that neither side
    // always finds the allocator warm.
    std::vector<TrialResult> results;
    for (std::size_t i = 0; i < inst[j].size(); ++i) {
      const TrialConfig& t = inst[j][i];
      repeats += graph_seeds_seen.insert(t.graph_seed).second ? 0.0 : 1.0;

      const double comparison_before = acc.comparison_s;
      const double trial_before = acc.trial_s;
      const bool untraced_first = (i + j) % 2 == 0;
      if (untraced_first) results.push_back(run_one(t, untraced));
      const TracedOutcome o = traced_trial(t, next_id++, spans, acc, rep);
      if (!untraced_first) results.push_back(run_one(t, untraced));
      traced_wall += (acc.trial_s - trial_before) - (acc.comparison_s - comparison_before);
      const TrialResult& r = results.back();
      if (o.success != r.success || o.messages != r.messages || o.rounds != r.rounds) {
        rep.errors.push_back("traced execution diverged from run_trials: " + trial_label(t));
      }
      if (j == 0) trace_cost(t, o, spans, trace, rep);
    }
    record_results(rep, j, inst[j], results);
    all_trials.insert(all_trials.end(), inst[j].begin(), inst[j].end());
    all_results.insert(all_results.end(), results.begin(), results.end());

    if (j == 0) {
      const dhc::graph::Graph g = dhc::runner::make_trial_instance(inst[0].front());
      probes = run_probes(g, seed, spans, rep);
      LayerTotals calib;
      for (const TrialConfig& t : calibration_trials(acc, seed)) traced_trial(t, -1, spans, calib, rep);
      // Calibration solves stand in only for the layers this workload does
      // not exercise; graph and runner figures stay the workload's own.
      for (auto& [name, core] : calib.core) acc.core.emplace(name, core);
      if (acc.km.runs == 0) acc.km = calib.km;
      if (acc.as.runs == 0) acc.as = calib.as;
    }
  }

  const double aggregate_s = spans.timed("runner.aggregate", [&] {
    const auto summaries = dhc::runner::aggregate(all_trials, all_results);
    std::ostringstream os;
    dhc::runner::write_json(os, workload, summaries);
  });

  double arena_peak = 0.0;
  double unverified = 0.0;
  double exceptions = 0.0;
  double rejections = 0.0;
  for (const TrialResult& r : all_results) {
    arena_peak = std::max(arena_peak, stat_or(r, "arena_bytes_peak", 0.0));
    unverified += r.success ? 0.0 : 1.0;
    exceptions += starts_with(r.failure_reason, "exception:") ? 1.0 : 0.0;
    rejections += starts_with(r.failure_reason, "verifier:") ? 1.0 : 0.0;
  }
  const double trials = static_cast<double>(all_results.size());

  auto& m = rep.metrics;
  m.push_back({"graph.gen_s", acc.gen_s, "s"});
  m.push_back({"graph.gen_ns_per_edge", ratio(acc.gen_s * 1e9, acc.edges), "ns/edge"});
  m.push_back({"graph.edges", acc.edges, "count"});
  m.push_back({"graph.instance_repeat_share", ratio(repeats, trials), "fraction"});
  m.push_back({"graph.connected_s", acc.connected_s, "s"});
  m.push_back({"graph.verify_s", acc.verify_s, "s"});
  m.push_back({"congest.flood_ns_per_msg", probes.flood_ns_per_msg, "ns/message"});
  m.push_back({"congest.walk_ns_per_round", probes.walk_ns_per_round, "ns/round"});
  m.push_back({"congest.arena_bytes_peak", arena_peak, "bytes"});
  for (const std::string& name : kCoreAlgos) {
    const auto& c = acc.core[name];
    const std::string p = "core." + name + ".";
    m.push_back({p + "solve_s", c.solve_s, "s"});
    m.push_back({p + "ns_per_msg", ratio(c.solve_s * 1e9, c.messages), "ns/message"});
    m.push_back({p + "messages", c.messages, "count"});
    m.push_back({p + "rounds", c.rounds, "count"});
    m.push_back({p + "failed", c.failed, "count"});
  }
  const auto& km = acc.km;
  const double pricing_s = km.run_s - km.plain_s;
  m.push_back({"kmachine.pricing_s", pricing_s, "s"});
  m.push_back({"kmachine.pricing_share", ratio(pricing_s, km.run_s), "fraction"});
  m.push_back({"kmachine.cross_share", ratio(km.cross, km.cross + km.local), "fraction"});
  m.push_back({"kmachine.rounds", km.rounds, "count"});
  const auto& as = acc.as;
  const double async_ns = ratio(as.run_s * 1e9, as.messages);
  m.push_back({"async.ns_per_msg", async_ns, "ns/message"});
  m.push_back({"async.sync_ratio", ratio(async_ns, ratio(as.plain_s * 1e9, as.plain_messages)), "ratio"});
  m.push_back({"async.payload_share", ratio(as.payload, as.messages), "fraction"});
  m.push_back({"async.retransmits", as.retransmits, "count"});
  m.push_back({"async.acks_sent", as.acks, "count"});
  m.push_back({"async.dropped", as.dropped, "count"});
  m.push_back({"async.round_limit_hits", as.round_limit_hits, "count"});
  m.push_back({"runner.expand_s", expand_s, "s"});
  m.push_back({"runner.aggregate_s", aggregate_s, "s"});
  m.push_back({"runner.trial_self_s", acc.trial_self_s, "s"});
  m.push_back({"runner.dispatch_s", untraced.dispatch, "s"});
  m.push_back({"runner.fail_share", ratio(unverified, trials), "fraction"});
  m.push_back({"runner.exception_trials", exceptions, "count"});
  m.push_back({"runner.verifier_rejections", rejections, "count"});
  m.push_back({"runner.s_per_verified", ratio(untraced.wall, untraced.verified), "s/cycle"});
  m.push_back({"trace.overhead_share", ratio(trace.recorded_s, trace.plain_s) - 1.0, "fraction"});
  m.push_back({"trace.bytes", trace.bytes, "bytes"});
  m.push_back({"bench.tracing_overhead_share", ratio(traced_wall, untraced.wall) - 1.0, "fraction"});

  if (!spans_path.empty()) {
    std::ofstream os(spans_path, std::ios::trunc);
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    spans.write_ndjson(os);
    if (!os) rep.errors.push_back("cannot write spans to '" + spans_path + "'");
  }
  return rep;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list_trials = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans = value;
    } else if (key == "--list-trials") {
      a.list_trials = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.list_trials) {
    const Instances inst = expand_instances(make_workload(a.workload, a.seed));
    std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (std::size_t j = 0; j < inst.size(); ++j) {
      for (const TrialConfig& t : inst[j]) {
        std::cout << "{\"instance\":" << j << ",";
        write_trial_config(std::cout, t);
        std::cout << "}\n";
      }
    }
    return 0;
  }
  const Report rep = a.trace ? run_traced(a.workload, a.seed, a.spans)
                             : run_end_to_end(a.workload, a.seed, a.seconds);
  std::cout.flush();
  write_report(std::cout, rep);
  return rep.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dhc_perfbench: " << e.what() << "\n";
    return 2;
  }
}
