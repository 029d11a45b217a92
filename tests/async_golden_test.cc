// Differential golden-seed test for the async engine: the observable
// behavior of every CONGEST solver under faults, pinned bit-for-bit.
//
// congest_golden pins the synchronous engine; this file pins the async
// delivery path that only fault plans reach — the link FIFO, the message
// delay wheel and its far map, the reliable overlay's seq/ack/retransmit
// traffic, and crash windows.  Each row of tests/golden/async_golden.txt is
// one (fault cell, solver) pair: every scalar of congest::Metrics in the
// clear plus an FNV-1a digest of the per-node vectors, phase marks, solver
// stats, failure reason and the returned cycle.  An engine change that is
// self-consistent (deterministic, shard-invariant) but delivers anything in
// a different order or round fails here with a field-level diff.
//
// The three cells:
//   drop-ack   fixed:1 delays, 2% drops, reliability=ack (the async-lossy
//              regime: retransmits and standalone acks on every link);
//   far-delay  geometric delays long enough that a share of the links take
//              >= Network::kWheelSize rounds, so messages (payload,
//              retransmits and acks alike) park in the far map;
//   crash      one crash window under reliability=ack: crashed receivers
//              drop traffic, crashed senders defer their timers.
//
// Regenerate (only when an intentional semantic change is reviewed):
//   DHC_UPDATE_GOLDEN=1 ./async_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "async/async.h"
#include "congest/network.h"
#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "kmachine/kmachine.h"

#ifndef DHC_ASYNC_GOLDEN_FILE
#define DHC_ASYNC_GOLDEN_FILE "tests/golden/async_golden.txt"
#endif

namespace dhc {
namespace {

struct AsyncGoldenCell {
  const char* label;
  graph::NodeId n;
  std::uint64_t graph_seed;
  async::AsyncConfig cfg;
};

std::vector<AsyncGoldenCell> golden_cells() {
  std::vector<AsyncGoldenCell> cells;

  async::AsyncConfig drop_ack;
  drop_ack.delay = congest::DelaySpec::parse("fixed:1");
  drop_ack.drop_prob = 0.02;
  drop_ack.reliability = congest::ReliabilitySpec::parse("ack");
  drop_ack.max_rounds = 200000;
  cells.push_back({"drop-ack", 128, 61, drop_ack});

  // Geometric(0.002) puts about 13% of the links at latency >= 1024 =
  // kWheelSize; with drops and the overlay engaged, retransmits and acks on
  // those links take the far map too.  The timeout starts above the typical
  // round trip so the run is not all spurious retransmits.
  async::AsyncConfig far_delay;
  far_delay.delay = congest::DelaySpec::parse("geometric:0.002");
  far_delay.drop_prob = 0.01;
  far_delay.reliability = congest::ReliabilitySpec::parse("ack");
  far_delay.rto = congest::RtoSpec::parse("rto:1200:2:4800");
  far_delay.max_rounds = 2000000;
  cells.push_back({"far-delay", 64, 17, far_delay});

  async::AsyncConfig crash;
  crash.delay = congest::DelaySpec::parse("fixed:1");
  crash.crash = congest::CrashSpec::parse("random:0.05:30:60");
  crash.reliability = congest::ReliabilitySpec::parse("ack");
  crash.max_rounds = 200000;
  cells.push_back({"crash", 128, 5, crash});

  return cells;
}

const char* const kSolvers[] = {"dra", "dhc1", "dhc2", "turau", "upcast"};

class Fnv1a {
 public:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void mix_str(const std::string& s) {
    for (const char ch : s) h_ = (h_ ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    mix(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::string observe(const AsyncGoldenCell& cell, const char* solver) {
  support::Rng rng(cell.graph_seed);
  const graph::Graph g = graph::gnp(cell.n, graph::edge_probability(cell.n, 2.5, 0.5), rng);
  const async::AsyncOutcome out =
      async::run_async(kmachine::algorithm_by_name(solver), g, /*seed=*/cell.graph_seed + 1,
                       cell.cfg);
  const core::Result& r = out.result;
  const congest::Metrics& m = r.metrics;
  const bool cycle_ok = r.success && graph::verify_cycle_incidence(g, r.cycle).ok();

  Fnv1a digest;
  for (const auto x : m.node_messages_sent) digest.mix(x);
  for (const auto x : m.node_messages_received) digest.mix(x);
  for (const auto x : m.node_memory_words) digest.mix(static_cast<std::uint64_t>(x));
  for (const auto x : m.node_peak_memory_words) digest.mix(static_cast<std::uint64_t>(x));
  for (const auto x : m.node_compute_ops) digest.mix(x);
  digest.mix(m.phase_marks.size());
  for (const auto& [label, round] : m.phase_marks) {
    digest.mix_str(label);
    digest.mix(round);
  }
  if (r.success) {
    for (const auto& pair : r.cycle.neighbors_of) {
      digest.mix(pair[0]);
      digest.mix(pair[1]);
    }
  }
  digest.mix_str(r.failure_reason);
  for (const auto& [key, value] : r.stats) {
    digest.mix_str(key);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    digest.mix(bits);
  }

  std::ostringstream os;
  os << cell.label << ' ' << solver << " | success=" << (r.success ? 1 : 0)
     << " cycle_ok=" << (cycle_ok ? 1 : 0) << " rounds=" << m.rounds
     << " messages=" << m.messages << " bits=" << m.bits << " barriers=" << m.barrier_count
     << " limit=" << (m.hit_round_limit ? 1 : 0) << " live=" << (m.round_limit_live ? 1 : 0)
     << " arena_peak=" << m.arena_bytes_peak << " delayed=" << m.delayed_messages
     << " dropped=" << m.dropped_messages << " crash_dropped=" << m.crash_dropped_messages
     << " crashed_steps=" << m.crashed_steps << " rejoins=" << m.crashed_rejoins
     << " retransmits=" << m.retransmits << " dups=" << m.dup_suppressed
     << " acks=" << m.acks_sent << " digest=" << std::hex << digest.value();
  return os.str();
}

// Every row, computed once and shared by both tests.
const std::vector<std::string>& observations() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out;
    for (const auto& cell : golden_cells()) {
      for (const char* solver : kSolvers) out.push_back(observe(cell, solver));
    }
    return out;
  }();
  return lines;
}

TEST(AsyncGolden, MatchesPinnedObservations) {
  const std::string path = DHC_ASYNC_GOLDEN_FILE;
  const auto& lines = observations();

  if (std::getenv("DHC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out << "# async golden observations — regenerate with DHC_UPDATE_GOLDEN=1\n"
        << "# (see tests/async_golden_test.cc; regenerate only for reviewed semantic changes)\n";
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "golden file updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run DHC_UPDATE_GOLDEN=1 ./async_golden_test once";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }

  ASSERT_EQ(expected.size(), lines.size())
      << "golden grid changed shape; regenerate deliberately";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(expected[i], lines[i]) << "golden row " << i << " diverged";
  }
}

// The cells must exercise what they are named for, or the pins are vacuous.
TEST(AsyncGolden, CellsReachTheirEnginePaths) {
  const auto cells = golden_cells();
  support::Rng rng(cells[1].graph_seed);
  const graph::Graph g =
      graph::gnp(cells[1].n, graph::edge_probability(cells[1].n, 2.5, 0.5), rng);
  // run_async derives the fault seed from the algorithm seed (graph_seed + 1).
  const congest::FaultPlan plan(cells[1].cfg.delay, 0.0, {},
                                async::derive_fault_seed(cells[1].graph_seed + 1));
  std::size_t far_links = 0;
  for (graph::NodeId u = 0; u < g.n(); ++u) {
    for (const graph::NodeId v : g.neighbors(u)) {
      if (plan.delay(u, v) >= congest::Network::kWheelSize) ++far_links;
    }
  }
  EXPECT_GT(far_links, 0u) << "far-delay cell has no link past the delay wheel";

  for (const auto& line : observations()) {
    if (line.rfind("drop-ack", 0) == 0) {
      EXPECT_EQ(line.find(" retransmits=0 "), std::string::npos) << line;
      EXPECT_EQ(line.find(" acks=0 "), std::string::npos) << line;
    }
    if (line.rfind("crash", 0) == 0) {
      EXPECT_EQ(line.find(" crash_dropped=0 "), std::string::npos) << line;
    }
  }
}

}  // namespace
}  // namespace dhc
