// dhc_trace — inspector for flight-recorder traces (src/trace/) and the
// perf-regression gate over BENCH artifacts.
//
// Modes (pick exactly one):
//   --summarize=TRACE        per-phase rounds/messages/bits table + totals
//   --diff=TRACE_A,TRACE_B   phase- and counter-level comparison; exit 1
//                            when any non-wall counter differs (the
//                            determinism / shard-invariance check as a tool)
//   --imbalance=TRACE        per-shard active/wall split and imbalance
//                            factors (traces recorded with DHC_SHARDS>1)
//   --chrome=TRACE           convert to Chrome trace_event JSON
//                            (--out=PATH, default TRACE.chrome.json); load
//                            in chrome://tracing or ui.perfetto.dev
//   --bench-gate=BENCH_JSON  compare against --baseline=BENCH_JSON: exit 1
//                            when any preset's trials_per_sec regressed by
//                            more than --tolerance (default 0.15), or when
//                            the workload counter changed at all (a behavior
//                            change masquerading as a perf delta).  The
//                            workload counter is payload_messages_total when
//                            both artifacts carry it (schema 4+; overlay
//                            retransmit/ack traffic excluded so async preset
//                            baselines survive RTO tuning), messages_total
//                            otherwise.  When both artifacts carry
//                            rss_peak_kb (schema 5+) it is additionally
//                            pinned within the tolerance (32 MB slack floor).
//                            A preset without a baseline entry is skipped,
//                            but when none has one the gate exits 1: a
//                            renamed preset must not disable it silently.
//   --trajectory=J1,J2,...   chronological bench artifacts: every shared
//                            preset must be no slower at each step than
//                            --tolerance below the previous artifact (the
//                            CI-enforced pre -> CSR -> sharded perf curve)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/cli.h"
#include "support/json.h"
#include "trace/chrome.h"
#include "trace/reader.h"
#include "trace/summary.h"

namespace {

using dhc::support::JsonValue;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int bench_gate(const std::string& current_path, const std::string& baseline_path,
               double tolerance) {
  const JsonValue current = dhc::support::parse_json(slurp(current_path));
  const JsonValue baseline = dhc::support::parse_json(slurp(baseline_path));

  int failures = 0;
  int matched = 0;
  for (const JsonValue& cur : current.get("scenarios").as_array()) {
    const std::string& name = cur.str("name");
    const JsonValue* base = nullptr;
    for (const JsonValue& b : baseline.get("scenarios").as_array()) {
      if (b.str("name") == name) {
        base = &b;
        break;
      }
    }
    if (base == nullptr) {
      std::cout << "bench-gate: " << name << ": no baseline entry (new preset, skipped)\n";
      continue;
    }
    ++matched;
    const double cur_tps = cur.number("trials_per_sec");
    const double base_tps = base->number("trials_per_sec");
    const double ratio = base_tps > 0.0 ? cur_tps / base_tps : 1.0;
    const bool tps_ok = ratio >= 1.0 - tolerance;
    std::cout << "bench-gate: " << name << ": " << base_tps << " -> " << cur_tps
              << " trials/s (x" << ratio << (tps_ok ? ", ok" : ", REGRESSION") << ")\n";
    if (!tps_ok) ++failures;

    // The workload counter is machine-independent: a change means the
    // workload itself changed, which invalidates the throughput comparison.
    // Prefer payload_messages_total (schema 4+) — it excludes overlay
    // retransmit/ack traffic, so async-preset baselines compare the solver
    // workload rather than the retransmit weather.
    const bool have_payload = cur.find("payload_messages_total") != nullptr &&
                              base->find("payload_messages_total") != nullptr;
    const char* counter = have_payload ? "payload_messages_total" : "messages_total";
    const std::uint64_t cur_msgs = cur.u64(counter);
    const std::uint64_t base_msgs = base->u64(counter);
    if (cur_msgs != base_msgs) {
      std::cout << "bench-gate: " << name << ": " << counter << " " << base_msgs << " -> "
                << cur_msgs << " (WORKLOAD CHANGED — refresh the baseline)\n";
      ++failures;
    }

    // Footprint gate: rss_peak_kb within the tolerance, engaged only when
    // BOTH artifacts carry the schema-5 key (older baselines keep working).
    // Small presets jitter by whole pages, so the slack never drops below a
    // 32 MB floor.
    const bool have_rss =
        cur.find("rss_peak_kb") != nullptr && base->find("rss_peak_kb") != nullptr;
    if (have_rss) {
      const double cur_rss = cur.number("rss_peak_kb");
      const double base_rss = base->number("rss_peak_kb");
      const double slack = std::max(base_rss * tolerance, 32.0 * 1024.0);
      const bool rss_ok = cur_rss <= base_rss + slack;
      std::cout << "bench-gate: " << name << ": rss " << base_rss << " -> " << cur_rss
                << " kB" << (rss_ok ? " (ok)" : " (FOOTPRINT REGRESSION)") << "\n";
      if (!rss_ok) ++failures;
    }
  }
  if (matched == 0) {
    std::cout << "bench-gate: FAILED (no preset in " << current_path
              << " has a baseline entry in " << baseline_path << ")\n";
    return EXIT_FAILURE;
  }
  if (failures > 0) {
    std::cout << "bench-gate: FAILED (" << failures << " check(s))\n";
    return EXIT_FAILURE;
  }
  std::cout << "bench-gate: ok (tolerance " << tolerance << ")\n";
  return EXIT_SUCCESS;
}

// The perf-trajectory check: given bench artifacts in chronological order
// (pre -> CSR -> sharded -> ...), every preset they share must be no slower
// in each successive artifact than `tolerance` below its predecessor — the
// "the curve only bends upward" property CI enforces on the committed
// baselines themselves.
int bench_trajectory(const std::vector<std::string>& paths, double tolerance) {
  if (paths.size() < 2) {
    throw std::invalid_argument("--trajectory needs at least two artifacts: --trajectory=A,B,...");
  }
  std::vector<JsonValue> artifacts;
  for (const auto& p : paths) artifacts.push_back(dhc::support::parse_json(slurp(p)));

  int failures = 0;
  for (std::size_t i = 1; i < artifacts.size(); ++i) {
    for (const JsonValue& cur : artifacts[i].get("scenarios").as_array()) {
      const std::string& name = cur.str("name");
      const JsonValue* prev = nullptr;
      for (const JsonValue& b : artifacts[i - 1].get("scenarios").as_array()) {
        if (b.str("name") == name) {
          prev = &b;
          break;
        }
      }
      if (prev == nullptr) continue;  // preset introduced at step i
      const double prev_tps = prev->number("trials_per_sec");
      const double cur_tps = cur.number("trials_per_sec");
      const bool ok = cur_tps >= prev_tps * (1.0 - tolerance);
      std::cout << "trajectory: " << name << " [" << paths[i - 1] << " -> " << paths[i]
                << "]: " << prev_tps << " -> " << cur_tps << " trials/s"
                << (ok ? " (ok)" : " (CURVE BENT DOWN)") << "\n";
      if (!ok) ++failures;
    }
  }
  if (failures > 0) {
    std::cout << "trajectory: FAILED (" << failures << " check(s))\n";
    return EXIT_FAILURE;
  }
  std::cout << "trajectory: ok (" << paths.size() << " artifacts, tolerance " << tolerance
            << ")\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhc;
  try {
    const support::Cli cli(argc, argv);
    if (cli.has("help") || argc == 1) {
      std::cout << "usage: dhc_trace --summarize=TRACE | --diff=A,B | --imbalance=TRACE | "
                   "--chrome=TRACE [--out=PATH] | --bench-gate=JSON --baseline=JSON "
                   "[--tolerance=0.15] | --trajectory=JSON,JSON,... [--tolerance=0.15]\n"
                   "See the header of tools/dhc_trace.cc for details.\n";
      return EXIT_SUCCESS;
    }

    if (cli.has("summarize")) {
      const auto data = trace::read_trace_file(cli.get_string("summarize", ""));
      trace::print_summary(data, std::cout);
      return EXIT_SUCCESS;
    }

    if (cli.has("diff")) {
      const auto paths = cli.get_string_list("diff", {});
      if (paths.size() != 2) {
        throw std::invalid_argument("--diff needs exactly two traces: --diff=A,B");
      }
      const auto a = trace::read_trace_file(paths[0]);
      const auto b = trace::read_trace_file(paths[1]);
      return trace::print_diff(a, b, std::cout) == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
    }

    if (cli.has("imbalance")) {
      const auto data = trace::read_trace_file(cli.get_string("imbalance", ""));
      trace::print_imbalance(data, std::cout);
      return EXIT_SUCCESS;
    }

    if (cli.has("chrome")) {
      const std::string in_path = cli.get_string("chrome", "");
      const auto data = trace::read_trace_file(in_path);
      const std::string out_path = cli.get_string("out", in_path + ".chrome.json");
      std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot open '" + out_path + "'");
      trace::write_chrome_trace(data, os);
      os.flush();
      if (!os) throw std::runtime_error("failed writing '" + out_path + "'");
      std::cout << "chrome trace: " << out_path << "\n";
      return EXIT_SUCCESS;
    }

    if (cli.has("trajectory")) {
      const double tolerance = cli.get_double("tolerance", 0.15);
      if (tolerance < 0.0 || tolerance >= 1.0) {
        throw std::invalid_argument("--tolerance must be in [0, 1)");
      }
      return bench_trajectory(cli.get_string_list("trajectory", {}), tolerance);
    }

    if (cli.has("bench-gate")) {
      if (!cli.has("baseline")) {
        throw std::invalid_argument("--bench-gate needs --baseline=BENCH_JSON");
      }
      const double tolerance = cli.get_double("tolerance", 0.15);
      if (tolerance < 0.0 || tolerance >= 1.0) {
        throw std::invalid_argument("--tolerance must be in [0, 1)");
      }
      return bench_gate(cli.get_string("bench-gate", ""), cli.get_string("baseline", ""),
                        tolerance);
    }

    throw std::invalid_argument(
        "pick a mode: --summarize, --diff, --imbalance, --chrome, --bench-gate, "
        "or --trajectory");
  } catch (const std::invalid_argument& e) {
    std::cerr << "dhc_trace: " << e.what() << "\n(run with --help for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dhc_trace: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
