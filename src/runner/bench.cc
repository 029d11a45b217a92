#include "runner/bench.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "support/huge_page_allocator.h"

namespace dhc::runner {

namespace {

std::vector<BenchPreset> make_presets() {
  std::vector<BenchPreset> presets;

  {
    // The acceptance grid: all five CONGEST solvers head-to-head on paired
    // G(n, p) instances at n = 2^12, the paper's delta = 1/2 regime.  This
    // is the message-volume-bound workload (tens of millions of messages
    // per trial), so it isolates the simulator hot path.
    BenchPreset p;
    p.name = "comparison";
    p.description = "five-algorithm head-to-head at n=4096 (simulator-bound)";
    p.scenario.name = "bench-comparison";
    p.scenario.algos = {Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kTurau,
                        Algorithm::kUpcast, Algorithm::kCollectAll};
    p.scenario.sizes = {4096};
    p.scenario.deltas = {0.5};
    p.scenario.cs = {2.5};
    p.scenario.seeds = 2;
    p.scenario.base_seed = 800;
    presets.push_back(std::move(p));
  }
  {
    // Mid-size sweep: the same five algorithms at n = 2^10, more seeds, so
    // per-trial fixed costs (graph generation, verification) carry more
    // relative weight than in "comparison".
    BenchPreset p;
    p.name = "comparison-1k";
    p.description = "five-algorithm head-to-head at n=1024";
    p.scenario.name = "bench-comparison-1k";
    p.scenario.algos = {Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kTurau,
                        Algorithm::kUpcast, Algorithm::kCollectAll};
    p.scenario.sizes = {1024};
    p.scenario.deltas = {0.5};
    p.scenario.cs = {2.5};
    p.scenario.seeds = 3;
    p.scenario.base_seed = 800;
    presets.push_back(std::move(p));
  }
  {
    // DHC2 density grid: exercises the partitioned setup (many groups, many
    // barriers) rather than raw flooding volume.
    BenchPreset p;
    p.name = "dhc2-grid";
    p.description = "dhc2 over a (n, delta) grid (barrier/wake-up bound)";
    p.scenario.name = "bench-dhc2-grid";
    p.scenario.algos = {Algorithm::kDhc2};
    p.scenario.sizes = {512, 1024, 2048};
    p.scenario.deltas = {0.5, 0.75};
    p.scenario.cs = {2.5};
    p.scenario.seeds = 3;
    p.scenario.base_seed = 801;
    presets.push_back(std::move(p));
  }
  {
    // The k-machine execution backend (paper §IV) as a workload family:
    // four CONGEST solvers priced under a random vertex partition at two
    // machine counts.  Exercises the full observer/event-log path on top of
    // the simulator, so it tracks conversion overhead as well as solver
    // throughput.
    BenchPreset p;
    p.name = "kmachine_sweep";
    p.description = "four algorithms priced in the k-machine model, k in {4, 16}";
    p.scenario.name = "bench-kmachine-sweep";
    p.scenario.model = ExecutionModel::kKMachine;
    p.scenario.algos = {Algorithm::kDra, Algorithm::kDhc1, Algorithm::kDhc2,
                        Algorithm::kTurau};
    p.scenario.sizes = {1024};
    p.scenario.deltas = {0.5};
    p.scenario.cs = {2.5};
    p.scenario.machines = {4, 16};
    p.scenario.bandwidth = 32;
    p.scenario.seeds = 2;
    p.scenario.base_seed = 803;
    presets.push_back(std::move(p));
  }
  {
    // Memory-probe pair: one node-count-dominated cell run twice, once per
    // node-stats mode.  The only difference between the two presets is the
    // accounting mode, so the rss_peak_kb delta in the artifact is the
    // measured cost of full per-node accounting (40 B/node plus arena slack)
    // over the streaming accumulators (16 B/node).  The instance is a huge
    // *sub-connectivity* G(n, m) (mean degree ~1): Turau floods its sparse
    // setup and then aborts gracefully on the disconnect, so per-round
    // message volume stays tiny and the per-node accounting dominates the
    // footprint — at n = 2^21 the measured drop is ~100 MB (~11%).  The 0/1
    // success in the artifact is by design; the probe measures allocation,
    // not solving.
    BenchPreset p;
    p.name = "mem-probe-full";
    p.description = "turau at n=2^21 (instant abort), full per-node stats (RSS probe)";
    p.scenario.name = "bench-mem-probe-full";
    p.scenario.algos = {Algorithm::kTurau};
    p.scenario.family = GraphFamily::kGnm;
    p.scenario.sizes = {2097152};
    p.scenario.deltas = {1.0};
    p.scenario.cs = {0.07};
    p.scenario.seeds = 1;
    p.scenario.base_seed = 804;
    p.scenario.node_stats = congest::NodeStatsMode::kFull;
    presets.push_back(std::move(p));
  }
  {
    BenchPreset p;
    p.name = "mem-probe-streaming";
    p.description = "turau at n=2^21 (instant abort), streaming per-node stats (RSS probe)";
    p.scenario.name = "bench-mem-probe-streaming";
    p.scenario.algos = {Algorithm::kTurau};
    p.scenario.family = GraphFamily::kGnm;
    p.scenario.sizes = {2097152};
    p.scenario.deltas = {1.0};
    p.scenario.cs = {0.07};
    p.scenario.seeds = 1;
    p.scenario.base_seed = 804;
    p.scenario.node_stats = congest::NodeStatsMode::kStreaming;
    presets.push_back(std::move(p));
  }
  {
    // The async fault-injection backend as a workload family: all five
    // solvers under drop probabilities crossed with the reliability axis.
    // The reliability=none x drop>0 cells replay PR 7's headline (every
    // solver stalls); the reliability=ack cells measure what reliability
    // costs instead — retransmit amplification per solver at each loss rate
    // (the drop axes are excluded from the derived seeds, so the
    // drop_prob=0 column doubles as the paired control, and the ack x
    // drop=0 cells are bitwise-identical to their none controls).
    BenchPreset p;
    p.name = "fault_sweep";
    p.description =
        "five solvers under async drops x {none, ack} reliability "
        "(retransmit-amplification curves)";
    p.scenario.name = "bench-fault-sweep";
    p.scenario.model = ExecutionModel::kAsync;
    p.scenario.algos = {Algorithm::kDhc2, Algorithm::kDhc1, Algorithm::kDra,
                        Algorithm::kUpcast, Algorithm::kTurau};
    p.scenario.sizes = {256};
    p.scenario.deltas = {0.5};
    p.scenario.cs = {2.5};
    p.scenario.delay_dists = {"fixed:1"};
    p.scenario.drop_probs = {0.0, 0.02, 0.05};
    p.scenario.reliabilities = {"none", "ack"};
    // Dropped messages stall solvers that assume reliable delivery; the
    // budget turns the reliability=none loss cells into fast
    // hit_round_limit failures so the bench measures overlay overhead, not
    // stall endurance.
    p.scenario.max_rounds = 200000;
    p.scenario.seeds = 2;
    p.scenario.base_seed = 805;
    presets.push_back(std::move(p));
  }
  {
    // The tentpole acceptance probe: one verified G(n, p) trial at n = 2^20
    // solved by the linear-space cre oracle.  The preset exists to record —
    // as BENCH_mem_flatten.json — that a million-node verified trial fits in
    // well under 4 GB after the flattening pass; its rss_peak_kb is the
    // headline number the bench gate then pins.
    BenchPreset p;
    p.name = "mem-flatten";
    p.description = "cre oracle solves + verifies one G(n,p) trial at n=2^20 (RSS probe)";
    p.scenario.name = "bench-mem-flatten";
    p.scenario.algos = {Algorithm::kCre};
    p.scenario.sizes = {1048576};
    p.scenario.deltas = {1.0};
    // c = 6 is the same supercritical density the differential tests pin:
    // the used-edge discipline consumes degree as it walks, so densities
    // near the Hamiltonicity threshold strand the head (event E2) even on
    // instances that do contain a cycle.
    p.scenario.cs = {6.0};
    p.scenario.seeds = 1;
    p.scenario.base_seed = 806;
    presets.push_back(std::move(p));
  }
  {
    // CI-sized smoke preset: every solver once, small n, a few seconds.
    BenchPreset p;
    p.name = "perf-smoke";
    p.description = "small grid for CI perf smoke runs";
    p.scenario.name = "bench-perf-smoke";
    p.scenario.algos = {Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kTurau,
                        Algorithm::kUpcast, Algorithm::kCollectAll};
    p.scenario.sizes = {256};
    p.scenario.deltas = {0.5};
    p.scenario.cs = {2.5};
    p.scenario.seeds = 2;
    p.scenario.base_seed = 802;
    presets.push_back(std::move(p));
  }
  return presets;
}

}  // namespace

const std::vector<BenchPreset>& bench_presets() {
  static const std::vector<BenchPreset> presets = make_presets();
  return presets;
}

const BenchPreset* find_bench_preset(const std::string& name) {
  for (const auto& p : bench_presets()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

long current_peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // kilobytes on Linux
}

namespace {

// Linux keeps a *resettable* RSS high-water mark: writing "5" to
// /proc/self/clear_refs zeroes VmHWM, so each preset can report its own
// peak instead of inheriting the process-lifetime maximum from whichever
// earlier preset was largest.  Returns false when the proc interface is
// unavailable (non-Linux), in which case ru_maxrss is the fallback.
bool reset_rss_peak() {
#if defined(__GLIBC__)
  // Freed-but-retained allocator pages from an earlier preset stay resident
  // and would dominate the reset high-water mark; hand them back first so
  // the next preset's VmHWM reflects its own working set.  That includes
  // the message arenas' spare huge mappings.
  malloc_trim(0);
#endif
  support::release_huge_page_spares();
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5\n";
  f.flush();
  return static_cast<bool>(f);
}

long read_rss_hwm_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

}  // namespace

BenchMeasurement run_bench_preset(const BenchPreset& preset, const RunnerOptions& opt) {
  BenchMeasurement m;
  m.name = preset.name;
  m.node_stats = congest::to_string(preset.scenario.node_stats);

  // The preset's frozen scenario owns the accounting mode (the mem-probe
  // pair differs only there); everything else comes from the caller.
  RunnerOptions run_opt = opt;
  run_opt.node_stats = preset.scenario.node_stats;

  const auto trials = expand(preset.scenario);
  m.trials = trials.size();
  // Resolve once and pass the same value to the run, so the recorded split
  // is by construction the split that executed.
  const ResolvedParallelism par = resolve_parallelism(trials.size(), opt);
  m.threads = par.threads;
  m.shards = par.shards;

  const bool per_preset_rss = reset_rss_peak();
  const auto start = std::chrono::steady_clock::now();
  const auto results = run_trials(trials, run_opt, par);
  m.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  for (const auto& r : results) {
    if (r.success) ++m.successes;
    m.messages_total += static_cast<std::uint64_t>(r.messages);
    // Async trials report payload_messages (messages minus overlay
    // retransmit/ack traffic); everywhere else the two counters coincide.
    const auto payload = r.stats.find("payload_messages");
    m.payload_messages_total += payload != r.stats.end()
                                    ? static_cast<std::uint64_t>(payload->second)
                                    : static_cast<std::uint64_t>(r.messages);
    for (const auto& [key, value] : r.stats) {
      if (key.rfind("phase_", 0) == 0) m.phase_rounds_mean[key] += value;
    }
    const auto arena = r.stats.find("arena_bytes_peak");
    if (arena != r.stats.end()) {
      m.arena_bytes_peak =
          std::max(m.arena_bytes_peak, static_cast<std::uint64_t>(arena->second));
    }
  }
  if (!results.empty()) {
    for (auto& [key, sum] : m.phase_rounds_mean) sum /= static_cast<double>(results.size());
  }
  if (m.wall_seconds > 0.0) {
    m.trials_per_sec = static_cast<double>(m.trials) / m.wall_seconds;
    m.messages_per_sec = static_cast<double>(m.messages_total) / m.wall_seconds;
  }
  m.rss_peak_kb = per_preset_rss ? read_rss_hwm_kb() : current_peak_rss_kb();
  return m;
}

void write_bench_json(std::ostream& os, const std::vector<BenchMeasurement>& measurements,
                      unsigned threads, std::uint32_t shards) {
  os << "{\n  \"bench\": \"congest\",\n  \"schema\": 5,\n  \"threads\": " << threads
     << ",\n  \"shards\": " << shards << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const auto& m = measurements[i];
    os << "    {\"name\": \"" << m.name << "\", \"trials\": " << m.trials
       << ", \"successes\": " << m.successes << ", \"threads\": " << m.threads
       << ", \"shards\": " << m.shards << ", \"wall_seconds\": " << m.wall_seconds
       << ", \"trials_per_sec\": " << m.trials_per_sec
       << ", \"messages_total\": " << m.messages_total
       << ", \"payload_messages_total\": " << m.payload_messages_total
       << ", \"messages_per_sec\": " << m.messages_per_sec
       << ", \"rss_peak_kb\": " << m.rss_peak_kb
       << ", \"arena_bytes_peak\": " << m.arena_bytes_peak
       << ", \"node_stats\": \"" << m.node_stats << "\", \"phases\": {";
    bool first = true;
    for (const auto& [key, value] : m.phase_rounds_mean) {
      os << (first ? "" : ", ") << '"' << key << "\": " << value;
      first = false;
    }
    os << "}}" << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace dhc::runner
