#include "async/async.h"

#include "support/require.h"
#include "support/rng.h"

namespace dhc::async {

std::uint64_t derive_fault_seed(std::uint64_t algo_seed) {
  // Same word-absorption chain as the runner's derive_seed(): absorb a salt
  // so the fault stream never aliases the protocol's own seed.
  std::uint64_t state = algo_seed;
  std::uint64_t h = support::splitmix64(state);
  state ^= 0xfa5e17ull;
  h ^= support::splitmix64(state);
  return h;
}

AsyncOutcome run_async(const core::CongestAlgorithm& algo, const graph::Graph& g,
                       std::uint64_t seed, const AsyncConfig& cfg) {
  DHC_REQUIRE(algo != nullptr, "run_async needs an algorithm");
  const std::uint64_t fault_seed =
      cfg.fault_seed != 0 ? cfg.fault_seed : derive_fault_seed(seed);
  congest::FaultPlan plan(cfg.delay, cfg.drop_prob, cfg.crash, fault_seed,
                          cfg.max_rounds);
  plan.set_reliability(cfg.reliability, cfg.rto);

  AsyncOutcome out;
  out.result = algo(g, seed, nullptr, cfg.shards, &plan);

  const congest::Metrics& m = out.result.metrics;
  out.report.success = out.result.success;
  out.report.rounds = m.rounds;
  out.report.messages = m.messages;
  out.report.delayed_messages = m.delayed_messages;
  out.report.dropped_messages = m.dropped_messages;
  out.report.crash_dropped_messages = m.crash_dropped_messages;
  out.report.crashed_steps = m.crashed_steps;
  out.report.crashed_nodes = plan.crashed_node_count(g.n());
  out.report.crashed_rejoins = m.crashed_rejoins;
  out.report.retransmits = m.retransmits;
  out.report.dup_suppressed = m.dup_suppressed;
  out.report.acks_sent = m.acks_sent;
  out.report.payload_messages = m.payload_messages();
  out.report.hit_round_limit = m.hit_round_limit;
  out.report.round_limit_live = m.round_limit_live;
  return out;
}

}  // namespace dhc::async
