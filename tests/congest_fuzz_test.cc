// Randomized protocol fuzzing for the CONGEST simulator: seeded random
// gossip protocols must (a) never trip the bandwidth checker when they send
// compliantly, (b) conserve messages (sent == delivered), and (c) replay
// bit-identically for equal seeds.  A second suite drives seeded random
// send/wake-up schedules through the arena simulator and through a naive
// reference delivery model (plain per-node queues, no arenas, no wheel) and
// requires byte-identical inbox logs — delivery order, timing, and
// round-skipping must match the definitionally-correct model.  Both suites
// run at several shard counts (DESIGN.md §5): the sharded engine must match
// the reference model byte for byte too, so the test protocols keep their
// logs per node (self-indexed state, the discipline sharding requires) and
// flatten them deterministically afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "congest/network.h"
#include "graph/generators.h"
#include "per_node_journal.h"

namespace dhc::congest {
namespace {

using graph::Graph;

// Each active node relays a random subset of neighbors, one message per
// neighbor per round (compliant by construction), for a bounded lifetime.
// All tallies are per node (self-indexed — shard-safe) and reduced in node
// order afterwards, so the combined observables are shard-invariant.
class GossipProtocol : public Protocol {
 public:
  GossipProtocol(graph::NodeId n, int max_generation)
      : max_generation_(max_generation), received_(n, 0), sent_(n, 0), checksum_(n, 0) {}

  void begin(Context& ctx) override {
    if (ctx.self() % 7 == 0) {
      send_wave(ctx, 0);
    }
  }

  void step(Context& ctx) override {
    const graph::NodeId v = ctx.self();
    std::int64_t best_gen = -1;
    for (const Message& msg : ctx.inbox()) {
      received_[v] += 1;
      checksum_[v] = checksum_[v] * 1099511628211ULL + msg.from * 31 +
                     static_cast<std::uint64_t>(msg.data[0]);
      best_gen = std::max(best_gen, msg.data[0]);
    }
    if (best_gen >= 0 && best_gen < max_generation_) {
      send_wave(ctx, best_gen + 1);
    }
  }

  std::uint64_t received() const { return sum(received_); }
  std::uint64_t sent() const { return sum(sent_); }
  std::uint64_t checksum() const {
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto c : checksum_) h = h * 1099511628211ULL + c;
    return h;
  }

 private:
  static std::uint64_t sum(const std::vector<std::uint64_t>& xs) {
    std::uint64_t total = 0;
    for (const auto x : xs) total += x;
    return total;
  }

  void send_wave(Context& ctx, std::int64_t generation) {
    for (const graph::NodeId w : ctx.neighbors()) {
      if (ctx.rng().bernoulli(0.5)) {
        ctx.send(w, Message::make(1, {generation}));
        sent_[ctx.self()] += 1;
      }
    }
  }

  int max_generation_;
  std::vector<std::uint64_t> received_;
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> checksum_;
};

// All begin()-round messages are delivered in round 1 (none lost); helper
// kept for clarity of the conservation equation.
std::uint64_t count_begin_wave_losses() { return 0; }

// (seed, shard count): every suite below must be invariant in the second
// coordinate.
using FuzzParam = std::tuple<std::uint64_t, std::uint32_t>;

class GossipFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(GossipFuzz, ConservesMessagesAndReplaysDeterministically) {
  const auto [seed, shards] = GetParam();
  support::Rng grng(seed);
  const Graph g = graph::gnp(120, 0.08, grng);

  std::uint64_t checksums[2];
  std::uint64_t rounds[2];
  for (int run = 0; run < 2; ++run) {
    NetworkConfig cfg;
    cfg.seed = seed * 13 + 1;
    // First run sequential, second at the parametrized shard count: the
    // equality assertions below therefore pin shard invariance, not just
    // replay determinism.
    cfg.shards = run == 0 ? 1 : shards;
    cfg.shard_grain = 1;
    Network net(g, cfg);
    GossipProtocol protocol(g.n(), /*max_generation=*/6);
    const Metrics metrics = net.run(protocol);
    // Conservation: everything sent was delivered (and counted once).
    EXPECT_EQ(protocol.sent(), protocol.received() + count_begin_wave_losses());
    EXPECT_EQ(metrics.messages, protocol.sent());
    std::uint64_t traffic_sent = 0;
    std::uint64_t traffic_recv = 0;
    for (const auto x : metrics.node_messages_sent) traffic_sent += x;
    for (const auto x : metrics.node_messages_received) traffic_recv += x;
    EXPECT_EQ(traffic_sent, metrics.messages);
    EXPECT_EQ(traffic_recv, metrics.messages);
    checksums[run] = protocol.checksum();
    rounds[run] = metrics.rounds;
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(rounds[0], rounds[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipFuzz,
                         ::testing::Combine(::testing::Range<std::uint64_t>(0, 12),
                                            ::testing::Values(1u, 4u)));

// --- differential fuzz: Network vs a naive reference delivery model --------

// A node's action in a round is a pure function of (seed, node, round): which
// neighbors to message, what payload, and how long to sleep.  Both the real
// protocol below and the reference simulator evaluate this same function, so
// any divergence in the logs is a delivery-model bug, not test noise.
struct Plan {
  std::vector<std::size_t> send_ranks;  // neighbor ranks to message
  std::int64_t payload = 0;
  std::uint64_t wake_delay = 0;  // 0 = no wake-up
};

Plan plan_for(std::uint64_t seed, graph::NodeId v, std::uint64_t round, std::size_t degree,
              std::uint64_t horizon) {
  Plan plan;
  if (round >= horizon) return plan;  // quiesce eventually
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)) ^ (round << 20);
  std::uint64_t h = support::splitmix64(state);
  plan.payload = static_cast<std::int64_t>(h & 0xffff);
  for (std::size_t i = 0; i < degree; ++i) {
    h = support::splitmix64(state);
    if ((h & 3) == 0) plan.send_ranks.push_back(i);  // ~1/4 of neighbors
  }
  h = support::splitmix64(state);
  switch (h % 5) {
    case 0:
      plan.wake_delay = 1 + (h >> 8) % 4;  // short: stays in the wheel
      break;
    case 1:
      plan.wake_delay = 1200 + (h >> 8) % 64;  // beyond the wheel: far heap
      break;
    default:
      break;  // no wake-up
  }
  return plan;
}

// Executes the plan through the real simulator, journaling every delivered
// message and every activation *per node* (self-indexed, so sharded rounds
// never write across nodes); the full log is flattened afterwards in
// (round, node) order — exactly the order the sequential stepper (and the
// reference model) emits lines in.
class ScriptedProtocol : public Protocol {
 public:
  ScriptedProtocol(graph::NodeId n, std::uint64_t seed, std::uint64_t horizon)
      : seed_(seed), horizon_(horizon), journal_(n) {}

  void begin(Context& ctx) override {
    if (ctx.self() % 3 == 0) act(ctx);  // seeders; round() == 0 here
  }

  void step(Context& ctx) override {
    std::ostringstream line;
    line << "r" << ctx.round() << " v" << ctx.self() << ":";
    for (const Message& m : ctx.inbox()) {
      line << " (" << m.from << "," << m.tag << "," << m.data[0] << ")";
    }
    journal_.append(ctx.self(), ctx.round(), line.str());
    act(ctx);
  }

  /// Flattened journal in (round asc, node asc) order — the sequential log.
  std::string log() const { return journal_.flatten(); }

 private:
  void act(Context& ctx) {
    const Plan plan = plan_for(seed_, ctx.self(), ctx.round(), ctx.degree(), horizon_);
    const auto nb = ctx.neighbors();
    for (const std::size_t rank : plan.send_ranks) {
      ctx.send(nb[rank], Message::make(7, {plan.payload, static_cast<std::int64_t>(rank)}));
    }
    if (plan.wake_delay != 0) ctx.wake_in(plan.wake_delay);
  }

  std::uint64_t seed_;
  std::uint64_t horizon_;
  testutil::PerNodeJournal journal_;
};

// The reference model: plain per-round maps and per-node vectors, written
// for obviousness.  Messages sent in round r arrive in round r+1; active
// nodes run in ascending id order; per-node arrival order is global send
// order; idle gaps are skipped but still numbered.
std::string reference_run(const Graph& g, std::uint64_t seed, std::uint64_t horizon,
                          std::uint64_t* rounds_out) {
  struct Pending {
    graph::NodeId from;
    std::int64_t payload;
    std::int64_t rank;
  };
  std::ostringstream log;
  std::map<std::uint64_t, std::map<graph::NodeId, std::vector<Pending>>> mail;
  std::map<std::uint64_t, std::set<graph::NodeId>> wake;

  const auto act = [&](graph::NodeId v, std::uint64_t round) {
    const Plan plan = plan_for(seed, v, round, g.degree(v), horizon);
    const auto nb = g.neighbors(v);
    for (const std::size_t rank : plan.send_ranks) {
      mail[round + 1][nb[rank]].push_back(
          {v, plan.payload, static_cast<std::int64_t>(rank)});
    }
    if (plan.wake_delay != 0) wake[round + plan.wake_delay].insert(v);
  };

  for (graph::NodeId v = 0; v < g.n(); ++v) {
    if (v % 3 == 0) act(v, 0);
  }
  std::uint64_t round = 0;
  while (!mail.empty() || !wake.empty()) {
    // Next active round: earliest mail (always next round) or wake-up.
    std::uint64_t next = static_cast<std::uint64_t>(-1);
    if (!mail.empty()) next = std::min(next, mail.begin()->first);
    if (!wake.empty()) next = std::min(next, wake.begin()->first);
    round = next;
    std::set<graph::NodeId> active;
    auto mail_it = mail.find(round);
    if (mail_it != mail.end()) {
      for (const auto& [v, box] : mail_it->second) active.insert(v);
    }
    if (const auto wake_it = wake.find(round); wake_it != wake.end()) {
      active.insert(wake_it->second.begin(), wake_it->second.end());
      wake.erase(wake_it);
    }
    for (const graph::NodeId v : active) {  // std::set iterates ascending
      log << "r" << round << " v" << v << ":";
      if (mail_it != mail.end()) {
        if (const auto box = mail_it->second.find(v); box != mail_it->second.end()) {
          for (const auto& p : box->second) {
            log << " (" << p.from << ",7," << p.payload << ")";
          }
        }
      }
      log << "\n";
      act(v, round);
      mail_it = mail.find(round);  // act() may invalidate via map inserts
    }
    if (mail_it != mail.end()) mail.erase(mail_it);
  }
  *rounds_out = round;
  return log.str();
}

class DeliveryFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(DeliveryFuzz, MatchesNaiveReferenceModel) {
  const auto [seed, shards] = GetParam();
  support::Rng grng(seed * 31 + 5);
  const Graph g = graph::gnp(60 + static_cast<graph::NodeId>(seed % 40), 0.12, grng);
  const std::uint64_t horizon = 30;

  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.shard_grain = 1;  // shard even the sparse rounds of these small graphs
  Network net(g, cfg);
  ScriptedProtocol protocol(g.n(), seed, horizon);
  const Metrics metrics = net.run(protocol);

  std::uint64_t ref_rounds = 0;
  const std::string expected = reference_run(g, seed, horizon, &ref_rounds);

  EXPECT_EQ(protocol.log(), expected)
      << "arena delivery diverged from the reference model (seed " << seed << ", shards "
      << shards << ")";
  EXPECT_EQ(metrics.rounds, ref_rounds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveryFuzz,
                         ::testing::Combine(::testing::Range<std::uint64_t>(0, 10),
                                            ::testing::Values(1u, 2u, 4u, 8u)));

// Prefetch-boundary cases for the stable scatter, which prefetches the slot
// of the message 16 positions ahead (DESIGN.md §4): rounds whose outbox
// holds 0, 1, 15, 16 and 17 messages run the empty scatter, the tail loop
// alone, and every hand-off between the prefetching loop and the tail.  Each
// node sends its share of `count` distinct directed edges of K_8, drawn from
// the seed, in two consecutive rounds (cold, then reused arenas); with 8
// receivers, several of one round's messages share a receiver, so the
// prefetch's early cursor read lags the true slot too.  Inboxes must match
// the reference order: senders ascending, each sender's sends in order.
using OutboxSizeParam = std::tuple<std::size_t, std::uint64_t, std::uint32_t>;
class DeliveryFuzzOutboxSize : public ::testing::TestWithParam<OutboxSizeParam> {};

TEST_P(DeliveryFuzzOutboxSize, ScatterMatchesReferenceAroundPrefetchDistance) {
  const auto [count, seed, shards] = GetParam();
  const Graph g = graph::complete_graph(8);
  struct Send {
    NodeId from;
    std::size_t rank;
  };
  std::vector<Send> plan;
  for (NodeId v = 0; v < g.n(); ++v) {
    for (std::size_t r = 0; r < g.degree(v); ++r) plan.push_back({v, r});
  }
  support::Rng rng(seed);
  for (std::size_t i = plan.size() - 1; i > 0; --i) {
    std::swap(plan[i], plan[rng.below(i + 1)]);
  }
  plan.resize(count);
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Send& a, const Send& b) { return a.from < b.from; });

  class PlanProtocol : public Protocol {
   public:
    PlanProtocol(const std::vector<Send>& plan, NodeId n) : plan_(plan), journal_(n) {}
    void begin(Context& ctx) override { act(ctx); }
    void step(Context& ctx) override {
      std::ostringstream line;
      line << "r" << ctx.round() << " v" << ctx.self() << ":";
      for (const Message& m : ctx.inbox()) line << " (" << m.from << "," << m.data[0] << ")";
      journal_.append(ctx.self(), ctx.round(), line.str());
      if (ctx.round() == 1) act(ctx);
    }
    std::string log() const { return journal_.flatten(); }

   private:
    void act(Context& ctx) {
      for (std::size_t i = 0; i < plan_.size(); ++i) {
        if (plan_[i].from != ctx.self()) continue;
        ctx.send_to_rank(plan_[i].rank,
                         Message::make(1, {static_cast<std::int64_t>(i + 100 * ctx.round())}));
      }
      ctx.wake_in(1);
    }
    const std::vector<Send>& plan_;
    testutil::PerNodeJournal journal_;
  };

  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.shard_grain = 1;
  Network net(g, cfg);
  PlanProtocol protocol(plan, g.n());
  const Metrics metrics = net.run(protocol);

  std::ostringstream expected;
  for (const std::uint64_t round : {1u, 2u}) {
    for (NodeId v = 0; v < g.n(); ++v) {
      expected << "r" << round << " v" << v << ":";
      for (std::size_t i = 0; i < plan.size(); ++i) {
        if (g.neighbors(plan[i].from)[plan[i].rank] != v) continue;
        expected << " (" << plan[i].from << "," << i + 100 * (round - 1) << ")";
      }
      expected << "\n";
    }
  }
  EXPECT_EQ(protocol.log(), expected.str()) << "outbox size " << count << ", shards " << shards;
  EXPECT_EQ(metrics.messages, 2 * count);
  EXPECT_EQ(metrics.arena_bytes_peak, 2 * count * sizeof(Message));
}

INSTANTIATE_TEST_SUITE_P(PrefetchBoundary, DeliveryFuzzOutboxSize,
                         ::testing::Combine(::testing::Values(0u, 1u, 15u, 16u, 17u),
                                            ::testing::Range<std::uint64_t>(0, 4),
                                            ::testing::Values(1u, 4u)));

}  // namespace
}  // namespace dhc::congest
