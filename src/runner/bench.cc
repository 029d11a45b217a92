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

BenchMeasurement run_bench_preset(const Scenario& preset, const RunnerOptions& opt) {
  BenchMeasurement m;
  m.name = preset.name;
  m.node_stats = congest::to_string(preset.node_stats);

  const auto trials = expand(preset);
  m.trials = trials.size();
  // Resolve once and pass the same value to the run, so the recorded split
  // is by construction the split that executed.
  const ResolvedParallelism par = resolve_parallelism(trials.size(), opt);
  m.threads = par.threads;
  m.shards = par.shards;

  const bool per_preset_rss = reset_rss_peak();
  const auto start = std::chrono::steady_clock::now();
  const auto results = run_trials(trials, opt, par);
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
