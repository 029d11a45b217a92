// Shard-invariance suite for the sharded round engine (DESIGN.md §5).
//
// The engine's contract is *bitwise* equivalence: for any shard count, a run
// must produce the same per-node inbox logs (content and order), the same
// metrics, the same wake-up timing (including far wake-ups that overflow the
// wheel), and — when an observer is attached — the same event stream in the
// same order.  These tests drive scripted protocols whose per-node state is
// strictly self-indexed (the discipline sharding relies on) and compare
// every observable against the shards=1 run.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "congest/network.h"
#include "graph/generators.h"
#include "per_node_journal.h"

namespace dhc::congest {
namespace {

using graph::Graph;

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};

// A deterministic scripted protocol: each activation logs its inbox into a
// per-node journal (self-indexed — shard-safe) and acts as a pure function
// of (seed, node, round): sends to a pseudo-random subset of neighbors,
// occasionally arms a short or far (beyond-the-wheel) wake-up.
class JournalProtocol : public Protocol {
 public:
  JournalProtocol(NodeId n, std::uint64_t seed, std::uint64_t horizon)
      : seed_(seed), horizon_(horizon), journal_(n) {}

  void begin(Context& ctx) override {
    if (ctx.self() % 3 == 0) act(ctx);
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

  /// All journal lines flattened in (round, node) order — the sequential
  /// activation order.
  std::string flattened() const { return journal_.flatten(); }

 private:
  void act(Context& ctx) {
    const NodeId v = ctx.self();
    const std::uint64_t round = ctx.round();
    if (round >= horizon_) return;
    std::uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * (v + 1)) ^ (round << 18);
    const auto nb = ctx.neighbors();
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if ((support::splitmix64(state) & 3) == 0) {
        ctx.send_to_rank(i, Message::make(9, {static_cast<std::int64_t>(round + i)}));
      }
    }
    // Mix in this node's private RNG so shard invariance also covers the
    // per-node stream positions.
    const std::uint64_t coin = ctx.rng().below(7);
    if (coin == 1) ctx.wake_in(1 + (support::splitmix64(state) % 3));
    if (coin == 2) ctx.wake_in(1100 + (support::splitmix64(state) % 64));  // far heap
  }

  std::uint64_t seed_;
  std::uint64_t horizon_;
  testutil::PerNodeJournal journal_;
};

/// Records the full observer event stream (order-sensitive).
class EventRecorder : public MessageObserver {
 public:
  void on_send(NodeId from, NodeId to, std::uint64_t round) override {
    log_.push_back({from, to, round});
  }
  // Deliberately no on_events override: exercises the default batch replay.
  const std::vector<SendEvent>& log() const { return log_; }

 private:
  std::vector<SendEvent> log_;
};

struct Observed {
  std::string journal;
  Metrics metrics;
  std::vector<SendEvent> events;
};

Observed run_once(const Graph& g, std::uint64_t seed, std::uint32_t shards,
                  bool with_observer) {
  NetworkConfig cfg;
  cfg.seed = seed * 77 + 5;
  cfg.shards = shards;
  cfg.shard_grain = 1;  // engage sharding even on tiny rounds
  EventRecorder recorder;
  if (with_observer) cfg.observer = &recorder;
  Network net(g, cfg);
  JournalProtocol protocol(g.n(), seed, /*horizon=*/40);
  Observed out;
  out.metrics = net.run(protocol);
  out.journal = protocol.flattened();
  out.events = recorder.log();
  return out;
}

void expect_metrics_equal(const Metrics& a, const Metrics& b, std::uint32_t shards) {
  EXPECT_EQ(a.rounds, b.rounds) << "shards=" << shards;
  EXPECT_EQ(a.messages, b.messages) << "shards=" << shards;
  EXPECT_EQ(a.bits, b.bits) << "shards=" << shards;
  EXPECT_EQ(a.node_messages_sent, b.node_messages_sent) << "shards=" << shards;
  EXPECT_EQ(a.node_messages_received, b.node_messages_received) << "shards=" << shards;
  EXPECT_EQ(a.node_compute_ops, b.node_compute_ops) << "shards=" << shards;
  EXPECT_EQ(a.node_memory_words, b.node_memory_words) << "shards=" << shards;
}

class ShardInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardInvariance, JournalsMetricsAndEventsMatchSequential) {
  const std::uint64_t seed = GetParam();
  support::Rng grng(seed * 17 + 3);
  const Graph g = graph::gnp(90 + static_cast<graph::NodeId>(seed % 30), 0.1, grng);

  const Observed base = run_once(g, seed, /*shards=*/1, /*with_observer=*/true);
  ASSERT_GT(base.metrics.messages, 0u);
  ASSERT_EQ(base.events.size(), base.metrics.messages);

  for (const std::uint32_t shards : kShardCounts) {
    if (shards == 1) continue;
    const Observed sharded = run_once(g, seed, shards, /*with_observer=*/true);
    EXPECT_EQ(sharded.journal, base.journal) << "shards=" << shards;
    expect_metrics_equal(sharded.metrics, base.metrics, shards);
    // The observer event stream must be identical *in order*, not just as a
    // multiset — k-machine pricing depends on per-round load sequences.
    ASSERT_EQ(sharded.events.size(), base.events.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < base.events.size(); ++i) {
      EXPECT_EQ(sharded.events[i].from, base.events[i].from) << "i=" << i;
      EXPECT_EQ(sharded.events[i].to, base.events[i].to) << "i=" << i;
      EXPECT_EQ(sharded.events[i].round, base.events[i].round) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardInvariance, ::testing::Range<std::uint64_t>(0, 8));

TEST(ShardEngine, ShardCountBeyondActiveSetIsHarmless) {
  support::Rng grng(11);
  const Graph g = graph::gnp(24, 0.3, grng);
  const Observed base = run_once(g, 4, 1, false);
  const Observed wide = run_once(g, 4, 64, false);  // more shards than nodes
  EXPECT_EQ(wide.journal, base.journal);
  expect_metrics_equal(wide.metrics, base.metrics, 64);
}

TEST(ShardEngine, ResolvesShardsFromEnvironmentWhenUnset) {
  support::Rng grng(3);
  const Graph g = graph::gnp(16, 0.4, grng);
  NetworkConfig cfg;  // shards = 0 → env or 1
  Network net(g, cfg);
  const char* env = std::getenv("DHC_SHARDS");
  const std::uint32_t expected = default_shards();
  EXPECT_EQ(net.shards(), expected);
  if (env == nullptr) {
    EXPECT_EQ(expected, 1u);
  }
}

TEST(ShardEngine, CapacityViolationDiagnosticIdenticalWhenSharded) {
  // A protocol that double-sends on one edge in a wide round; the violation
  // is thrown from inside a shard and must carry the same diagnostic.
  class DoubleSend : public Protocol {
   public:
    void begin(Context& ctx) override {
      if (ctx.self() == 0) ctx.wake_in(1);
    }
    void step(Context& ctx) override {
      if (ctx.round() == 1 && ctx.self() == 0) {
        // Wake everyone so round 2 is wide enough to shard.
        for (std::size_t i = 0; i < ctx.degree(); ++i) {
          ctx.send_to_rank(i, Message::make(1));
        }
        ctx.wake_in(1);
        return;
      }
      if (ctx.self() == 0 && ctx.degree() > 0) {
        ctx.send_to_rank(0, Message::make(2, {1}));
        ctx.send_to_rank(0, Message::make(3, {2}));  // violates capacity 1
      }
    }
  };

  support::Rng grng(7);
  const Graph g = graph::gnp(40, 0.5, grng);
  auto run_and_catch = [&](std::uint32_t shards) -> std::string {
    NetworkConfig cfg;
    cfg.seed = 1;
    cfg.shards = shards;
    cfg.shard_grain = 1;
    Network net(g, cfg);
    DoubleSend protocol;
    try {
      net.run(protocol);
    } catch (const CongestViolation& e) {
      return e.what();
    }
    return "<no violation>";
  };
  const std::string seq = run_and_catch(1);
  ASSERT_NE(seq, "<no violation>");
  EXPECT_EQ(run_and_catch(4), seq);
}

TEST(ShardEngine, SenderLocalBudgetsAreIsolatedPerNodeAndShard) {
  // Every node sends once on rank 0 in the same wide round, so each shard's
  // capacity scratch sees the same rank from many nodes back to back; only
  // the culprit — the last node, stepped in the last shard — double-sends.
  // The sharded run must reject exactly that send, with the sequential
  // run's diagnostic.
  class RankZeroWave : public Protocol {
   public:
    explicit RankZeroWave(NodeId culprit) : culprit_(culprit) {}
    void begin(Context& ctx) override { ctx.wake_in(1); }
    void step(Context& ctx) override {
      if (ctx.round() != 1) return;
      ctx.send_to_rank(0, Message::make(1, {ctx.self()}));
      if (ctx.self() == culprit_) ctx.send_to_rank(0, Message::make(2));
    }

   private:
    NodeId culprit_;
  };

  support::Rng grng(11);
  const Graph g = graph::gnp(40, 0.5, grng);
  for (NodeId v = 0; v < g.n(); ++v) ASSERT_GT(g.degree(v), 0u);
  auto run_and_catch = [&](std::uint32_t shards, NodeId culprit) -> std::string {
    NetworkConfig cfg;
    cfg.seed = 3;
    cfg.shards = shards;
    cfg.shard_grain = 1;
    Network net(g, cfg);
    RankZeroWave protocol(culprit);
    try {
      const Metrics m = net.run(protocol);
      return "<no violation: " + std::to_string(m.messages) + " messages>";
    } catch (const CongestViolation& e) {
      return e.what();
    }
  };
  const NodeId last = g.n() - 1;
  const std::string seq = run_and_catch(1, last);
  ASSERT_NE(seq.find("edge (" + std::to_string(last) + "→"), std::string::npos) << seq;
  EXPECT_EQ(run_and_catch(4, last), seq);
  // Without the culprit the same wave is legal at every shard count.
  for (const std::uint32_t shards : kShardCounts) {
    EXPECT_EQ(run_and_catch(shards, kNoNode), "<no violation: 40 messages>") << shards;
  }
}

}  // namespace
}  // namespace dhc::congest
