// Micro-benchmarks (google-benchmark): the substrate's hot paths.
//
// These are engineering benchmarks, not paper experiments: generator
// throughput (Batagelj–Brandes), verifier cost, treap rotations, the
// sequential solver, and the CONGEST engine's per-message delivery path —
// the pieces that bound how large the simulated experiments can go.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "congest/fault_plan.h"
#include "congest/network.h"
#include "core/path_treap.h"
#include "core/sequential.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/hamiltonian.h"

namespace {

using namespace dhc;

void BM_GnpGeneration(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const double p = graph::edge_probability(n, 3.0, 0.5);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    support::Rng rng(seed++);
    const auto g = graph::gnp(n, p, rng);
    benchmark::DoNotOptimize(g.m());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GnpGeneration)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_VerifyCycleIncidence(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng rng(7);
  const auto g = graph::gnp(n, graph::edge_probability(n, 4.0, 1.0), rng);
  // Build a planted cycle over a complete overlay to guarantee validity.
  graph::CycleOrder order;
  order.order.resize(n);
  std::iota(order.order.begin(), order.order.end(), 0);
  auto edges = g.edges();
  const auto extra = graph::cycle_edges(order);
  edges.insert(edges.end(), extra.begin(), extra.end());
  const graph::Graph g2(n, edges);
  const auto inc = graph::incidence_from_order(order);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::verify_cycle_incidence(g2, inc).ok());
  }
}
BENCHMARK(BM_VerifyCycleIncidence)->Arg(1024)->Arg(8192);

void BM_TreapRotations(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  core::PathTreap treap(n, 3);
  for (graph::NodeId v = 0; v < n; ++v) treap.append(v);
  support::Rng rng(5);
  for (auto _ : state) {
    const auto j = static_cast<std::uint32_t>(1 + rng.below(n - 1));
    treap.rotate_suffix(j);
    benchmark::DoNotOptimize(treap.at(n));
  }
}
BENCHMARK(BM_TreapRotations)->Arg(1024)->Arg(65536);

void BM_SequentialRotationSolver(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng grng(11);
  const auto g = graph::gnp(n, graph::edge_probability(n, 6.0, 1.0), grng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    support::Rng rng(seed++);
    const auto r = core::rotation_hamiltonian_cycle(g, rng);
    benchmark::DoNotOptimize(r.success);
  }
}
BENCHMARK(BM_SequentialRotationSolver)->Arg(1024)->Arg(8192);

void BM_BfsDiameter(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng grng(13);
  const auto g = graph::gnp(n, graph::edge_probability(n, 3.0, 1.0), grng);
  support::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::estimated_diameter(g, rng, 2));
  }
}
BENCHMARK(BM_BfsDiameter)->Arg(4096);

// --- CONGEST engine ---------------------------------------------------------
// Each iteration runs a fresh Network, so the timings include sizing and
// first-touching the message arenas, as every trial does; items/s is
// messages/s.

// Senders [0, S) each message every receiver [S, S + R) of K_{S,R} once, in
// a seeded random order, from begin(); round 1 delivers all N = S·R messages
// through one stable scatter into R receiver slices.
class ScatterProtocol : public congest::Protocol {
 public:
  ScatterProtocol(graph::NodeId senders, graph::NodeId receivers, std::uint64_t seed)
      : senders_(senders), receivers_(receivers), order_(std::size_t{senders} * receivers) {
    support::Rng rng(seed);
    for (graph::NodeId s = 0; s < senders; ++s) {
      std::uint32_t* row = order_.data() + std::size_t{s} * receivers;
      std::iota(row, row + receivers, 0u);
      for (std::uint32_t i = receivers - 1; i > 0; --i) {
        std::swap(row[i], row[rng.below(i + 1)]);
      }
    }
  }
  void begin(congest::Context& ctx) override {
    if (ctx.self() >= senders_) return;
    const std::uint32_t* row = order_.data() + std::size_t{ctx.self()} * receivers_;
    for (std::uint32_t i = 0; i < receivers_; ++i) {
      ctx.send_to_rank(row[i], congest::Message::make(1, {ctx.self()}));
    }
  }
  void step(congest::Context& ctx) override { received_ += ctx.inbox().size(); }
  std::uint64_t received() const { return received_; }

 private:
  graph::NodeId senders_;
  graph::NodeId receivers_;
  std::vector<std::uint32_t> order_;  // per sender: receiver ranks in send order
  std::uint64_t received_ = 0;
};

void BM_EngineScatter(benchmark::State& state) {
  const auto messages = static_cast<graph::NodeId>(state.range(0));
  const auto receivers = static_cast<graph::NodeId>(state.range(1));
  const graph::NodeId senders = messages / receivers;
  const auto g = graph::complete_bipartite_graph(senders, receivers);
  ScatterProtocol protocol(senders, receivers, 23);
  for (auto _ : state) {
    congest::Network net(g, {});
    const congest::Metrics m = net.run(protocol);
    benchmark::DoNotOptimize(m.messages);
  }
  if (protocol.received() != std::uint64_t{senders} * receivers * state.iterations()) {
    state.SkipWithError("scatter lost messages");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * senders * receivers);
}
BENCHMARK(BM_EngineScatter)->Args({1 << 16, 256})->Args({1 << 20, 4096});

// Every node sends once to every neighbor from begin(): one flood round of
// 2m messages, as in the paper's dense regime G(n, p = 2.5·ln n / √n).
class FloodOnceProtocol : public congest::Protocol {
 public:
  void begin(congest::Context& ctx) override {
    for (std::size_t r = 0; r < ctx.degree(); ++r) {
      ctx.send_to_rank(r, congest::Message::make(1, {ctx.self()}));
    }
  }
  void step(congest::Context& ctx) override { received_ += ctx.inbox().size(); }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

void BM_EngineFloodRound(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng grng(29);
  const auto g = graph::gnp(n, graph::edge_probability(n, 2.5, 0.5), grng);
  FloodOnceProtocol protocol;
  for (auto _ : state) {
    congest::Network net(g, {});
    const congest::Metrics m = net.run(protocol);
    benchmark::DoNotOptimize(m.messages);
  }
  if (protocol.received() != 2 * g.m() * state.iterations()) {
    state.SkipWithError("flood lost messages");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2 * g.m()));
}
BENCHMARK(BM_EngineFloodRound)->Arg(1024)->Arg(4096);

// The same flood on the async path under the perfbench async-lossy regime:
// fixed:1 delays, 2% drops, reliability=ack.  Every send takes the link
// FIFO, drop hash and delay wheel; the overlay stamps, acks and retransmits
// until all 2m payloads have arrived exactly once.  items/s counts every
// message the engine carried (payload, retransmits and standalone acks).
void BM_EngineLossyAckFlood(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  support::Rng grng(29);
  const auto g = graph::gnp(n, graph::edge_probability(n, 2.5, 0.5), grng);
  congest::FaultPlan plan(congest::DelaySpec::parse("fixed:1"), 0.02, congest::CrashSpec{},
                          /*fault_seed=*/31);
  plan.set_reliability(congest::ReliabilitySpec::parse("ack"), congest::RtoSpec{});
  congest::NetworkConfig cfg;
  cfg.faults = &plan;
  FloodOnceProtocol protocol;
  std::uint64_t carried = 0;
  for (auto _ : state) {
    congest::Network net(g, cfg);
    const congest::Metrics m = net.run(protocol);
    carried += m.messages;
  }
  if (protocol.received() != 2 * g.m() * state.iterations()) {
    state.SkipWithError("lossy flood lost or duplicated payload");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(carried));
}
BENCHMARK(BM_EngineLossyAckFlood)->Arg(512)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
