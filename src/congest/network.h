// Synchronous CONGEST network simulator.
//
// Executes a Protocol over a graph in discrete rounds (paper §I-A): messages
// sent in round r are delivered at the start of round r+1; each directed
// edge carries at most `edge_capacity` messages per round (violations
// throw).  Scheduling is event-driven — only nodes holding freshly delivered
// messages or armed wake-ups run — so simulation cost tracks message volume,
// not n × rounds.
//
// Memory layout (DESIGN.md §4): the hot path is allocation-free in the
// steady state.  Sends append to a flat outbox log; at the next round's
// delivery the log is scattered — stably, so per-node arrival order is the
// global send order, exactly as the old per-node queues behaved — into a
// flat inbox arena in which every active node owns one contiguous slice.
// inbox() is a span over that slice.  Wake-ups live in a fixed-size bucket
// wheel indexed by round (far-future wake-ups overflow into a small heap)
// instead of a std::map.  Both arenas and all wheel buckets are reused
// across rounds; the arenas sit on 2 MiB huge pages once they pass 2 MiB,
// and the scatter prefetches its destination slots.  The per-edge capacity
// check uses sender-local scratch indexed by neighbor rank (SendBudget),
// valid because all of a node's sends in a round happen in its one call.
//
// Sharded rounds (DESIGN.md §5): with cfg.shards > 1, large rounds step the
// id-sorted active set as contiguous shard slices on a persistent worker
// pool.  Each shard appends sends, wake-ups, and observer events to its own
// logs; a serial merge in shard order then replays the receiver-side
// bookkeeping.  Because the shards are contiguous slices of the id-sorted
// active set, concatenating the shard logs reproduces the sequential global
// send order exactly — the stable scatter, per-node inbox order, wheel
// bucket contents, per-node RNG streams, and every Metrics counter are
// bitwise identical for any shard count (including 1).  The shard partition
// is independent of how many pool threads execute it, so determinism never
// depends on the machine.
//
// Phase barriers: when the network goes quiescent (no messages in flight, no
// wake-ups armed) the protocol's on_quiescence() hook runs; it can advance
// to a new phase and wake nodes, or end the run.  Each such transition is
// counted as a barrier in Metrics (it stands for a termination-detection
// convergecast a real deployment would pay O(D) rounds for — see DESIGN.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/metrics.h"
#include "congest/trace_sink.h"
#include "graph/graph.h"
#include "support/require.h"
#include "support/rng.h"
#include "support/worker_pool.h"

namespace dhc::congest {

class FaultPlan;        // congest/fault_plan.h — async delays/drops/crashes
class ReliableOverlay;  // congest/reliable.h — seq/ack/retransmit transport

/// Thrown when a protocol exceeds the CONGEST per-edge bandwidth, sends to a
/// non-neighbor, or otherwise breaks the communication model.
class CongestViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// One observed send, as recorded in a shard's event log.
struct SendEvent {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint64_t round = 0;
};

namespace internal {

/// Sender-local edge-capacity scratch.  All of a node's sends in a round
/// happen inside its one begin()/step() call — Context is the only send API,
/// on_quiescence() gets no Context, and the reliable overlay's retransmits
/// and acks bypass commit_send — so "sends on this directed edge this round"
/// equals "sends on this neighbor rank during the current call".  One slot
/// per neighbor rank (sized by the graph's max degree), lazily reset by
/// stamp: constructing a Context — once per begin()/step() call — bumps
/// `stamp`, so a slot whose stamp is stale holds a previous call's count.
struct SendBudget {
  struct Slot {
    std::uint64_t stamp = 0;
    std::uint32_t load = 0;
  };
  std::vector<Slot> slots;
  std::uint64_t stamp = 0;
};

/// Thread-local log of one shard's round: sends, wake-ups, observer events,
/// and the shard's slice of the global counters.  Merged serially in shard
/// order after the parallel section; cleared (capacity kept) every round.
/// Cache-line aligned so neighboring shards' counters never share a line.
struct alignas(64) ShardState {
  MessageArena outbox;
  SendBudget budget;  // capacity scratch of the node this shard is stepping
  std::vector<std::pair<std::uint64_t, NodeId>> wakeups;  // (delay, node)
  std::vector<SendEvent> events;  // populated only when an observer is attached
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

}  // namespace internal

/// Optional tap on the message stream, e.g. to re-price an execution under
/// a different cost model (the k-machine conversion of paper §IV).
class MessageObserver {
 public:
  virtual ~MessageObserver() = default;
  /// Called for every sent message with the round it was sent in
  /// (sequential rounds only; sharded rounds deliver batches below).
  virtual void on_send(NodeId from, NodeId to, std::uint64_t round) = 0;
  /// Called once per merged shard log on sharded rounds; events arrive in
  /// the exact global send order, so the default — replaying them through
  /// on_send() — makes any observer shard-correct.  Observers on hot paths
  /// (KMachineCost) override this to consume the batch directly.
  virtual void on_events(std::span<const SendEvent> events) {
    for (const SendEvent& e : events) on_send(e.from, e.to, e.round);
  }
};

struct NetworkConfig {
  /// Messages allowed per directed edge per round (the paper's B; 1 is the
  /// strict CONGEST setting used everywhere in libdhc).
  std::uint32_t edge_capacity = 1;

  /// Hard stop: abort the run after this many rounds (safety net; a run that
  /// trips it reports hit_round_limit instead of looping forever).
  std::uint64_t max_rounds = 50'000'000;

  /// Seed from which all per-node RNG streams are derived.
  std::uint64_t seed = 0;

  /// Optional message tap (not owned; must outlive the run).
  MessageObserver* observer = nullptr;

  /// Shard count for intra-round parallelism.  0 resolves the DHC_SHARDS
  /// environment variable (absent/invalid → 1); 1 is the classic sequential
  /// stepper.  Results are bitwise identical for every value.
  std::uint32_t shards = 0;

  /// Minimum active nodes *per shard* before a round is dispatched to the
  /// pool; smaller rounds step sequentially (identical results, no dispatch
  /// overhead).  0 resolves DHC_SHARD_GRAIN (absent/invalid → 32).
  std::uint32_t shard_grain = 0;

  /// Optional flight-recorder sink fed one RoundTrace per executed round
  /// plus phase/barrier marks (not owned; must outlive the run).  Per-round
  /// wall clocks are read only when a sink is attached, so tracing off has
  /// zero timing overhead.
  TraceSink* trace = nullptr;

  /// Per-node accounting mode (congest/metrics.h).  kFull is the classic
  /// exact-vector mode every golden test pins; kStreaming trades exact
  /// per-node vectors for compact accumulators + quantile summaries.
  NodeStatsMode node_stats = NodeStatsMode::kFull;

  /// Byte budget for the message arenas (outbox log, inbox arena, async
  /// delay wheel).  0 resolves DHC_ARENA_BUDGET (absent → unbounded).  When
  /// bounded, arena growth reserves exactly what a round needs (no geometric
  /// doubling past the budget) and capacities shrink back to the in-flight
  /// footprint whenever the reserved bytes exceed the budget.  Purely a
  /// capacity policy: every counter and result is bitwise identical for
  /// every setting — Metrics::arena_bytes_peak reports logical occupancy,
  /// which the budget never changes.
  std::uint64_t arena_budget_bytes = 0;

  /// Optional fault plan (not owned; must outlive the run).  nullptr — the
  /// default — is the synchronous CONGEST model, bit-for-bit as before.
  /// Non-null switches the engine to the async delivery regime (DESIGN.md
  /// §8): sends are routed through the plan's drop/delay decisions into a
  /// message delay wheel and delivered when their latency elapses; crashed
  /// nodes neither step nor receive.
  const FaultPlan* faults = nullptr;
};

class Network;

/// The DHC_SHARDS environment default applied when NetworkConfig::shards is
/// left at 0 (absent/invalid → 1).  Exposed so the runner's thread-budget
/// arbitration and the artifact headers agree with what the simulator runs.
std::uint32_t default_shards();

/// Per-node view handed to protocol code during a round.  Exposes only what
/// a real node would have: its id, its neighbors, this round's inbox, its
/// private RNG stream, and the ability to send to neighbors / schedule its
/// own future wake-up.
class Context {
 public:
  NodeId self() const { return self_; }
  std::uint64_t round() const;
  std::span<const NodeId> neighbors() const;
  std::size_t degree() const { return neighbors().size(); }

  /// Messages delivered to this node at the start of this round, in send
  /// order (a contiguous slice of the round's inbox arena).
  std::span<const Message> inbox() const;

  /// Sends `msg` to neighbor `to` (delivered next round).  Throws
  /// CongestViolation if `to` is not a neighbor or the edge is saturated.
  void send(NodeId to, const Message& msg);

  /// Sends `msg` to neighbors()[rank].  Same semantics as send(), but O(1):
  /// flood loops that already walk the neighbor span skip the per-message
  /// O(log deg) rank lookup.  Requires rank < degree().
  void send_to_rank(std::size_t rank, const Message& msg);

  /// Arms a wake-up `delay` rounds from now (>= 1); the node's step() runs
  /// in that round even with an empty inbox.
  void wake_in(std::uint64_t delay);

  /// This node's private RNG stream (deterministic per (seed, node)).
  support::Rng& rng();

  /// Registers `words` words of node-local memory (may be negative to
  /// release); peak per node is reported in Metrics.
  void charge_memory(std::int64_t words);

  /// Charges local computation (unit: operations) for load-balance metrics.
  void charge_compute(std::uint64_t ops);

 private:
  friend class Network;
  // One Context per begin()/step() call: opens a fresh capacity window in
  // the stepping lane's SendBudget (the shard's, or the network's own).
  Context(Network& net, NodeId self, internal::ShardState* shard);
  Network& net_;
  NodeId self_;
  internal::ShardState* shard_;  // nullptr on sequential rounds
};

/// A distributed algorithm run by the Network.  Implementations hold all
/// per-node state (indexed by NodeId) and must only touch state of the node
/// whose Context they are given — that discipline is what makes the
/// simulation faithful to a message-passing execution, and what makes
/// sharded rounds race-free.  Aggregate counters bumped inside step() must
/// be atomic (their sums are order-independent); anything else shared and
/// mutable disqualifies the affected rounds via parallel_step_safe().
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once per node before round 1 (round 0 setup).
  virtual void begin(Context& ctx) = 0;

  /// Called for every active node each round (nodes with inbox or wake-up).
  virtual void step(Context& ctx) = 0;

  /// Called when no messages are in flight and no wake-ups are armed.
  /// Return true to continue (after waking nodes / advancing a phase);
  /// false to end the run.  Default: end.
  virtual bool on_quiescence(Network& net) {
    (void)net;
    return false;
  }

  /// Whether step() currently honors the per-node discipline above, queried
  /// once per round (so phase flags flipped in on_quiescence are stable).
  /// Protocols that route shared mutable state through plain members in
  /// some phase (DHC1's hypernode walk) return false there; those rounds
  /// step sequentially regardless of the shard count.
  virtual bool parallel_step_safe() const { return true; }
};

/// The simulator.  Owns the message arenas, the wake-up wheel, the shard
/// worker pool, and metrics for one run.
class Network {
 public:
  Network(const graph::Graph& g, NetworkConfig cfg);
  ~Network();  // out of line: ReliableOverlay is incomplete here

  const graph::Graph& graph() const { return *graph_; }
  NodeId n() const { return graph_->n(); }
  std::uint64_t round() const { return round_; }

  /// Resolved shard count (cfg.shards, or the DHC_SHARDS default).
  std::uint32_t shards() const { return shards_; }

  /// Runs `protocol` to quiescence (or the round limit) and returns metrics.
  Metrics run(Protocol& protocol);

  /// --- calls available to Protocol::on_quiescence ---

  /// Wakes `v` in the next round.
  void wake(NodeId v);

  /// Wakes every node in the next round.
  void wake_all();

  /// Labels the upcoming rounds as a new phase (metrics bookkeeping).
  void mark_phase(const std::string& label);

  /// Sets the per-barrier round charge (e.g. 2·tree depth once known).
  void set_barrier_cost(std::uint64_t rounds_per_barrier);

  /// Metrics of the run in progress (valid during run()).
  Metrics& metrics() { return metrics_; }

  /// Wake-up wheel geometry: one bucket per upcoming round, indexed modulo
  /// the wheel size.  Every delay protocols use in practice is far below
  /// kWheelSize; longer delays overflow into a (round, node) min-heap.
  /// Rounds advance either by +1 or by jumping to the *minimum* armed round
  /// (wake-up or pending async delivery), so a bucket is always drained
  /// before its slot could be reused.  The async message delay wheel shares
  /// this geometry.  Public so the boundary tests can pin the wheel/heap
  /// hand-off at exactly kWheelSize-1 / kWheelSize / kWheelSize+1.
  static constexpr std::uint64_t kWheelBits = 10;
  static constexpr std::uint64_t kWheelSize = 1ull << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;

 private:
  friend class Context;

  using ShardState = internal::ShardState;

  void deliver_and_build_active_set();
  void step_active_set(Protocol& protocol);
  /// Per-round footprint sample + budget enforcement (run() epilogue): max
  /// logical in-flight bytes into metrics_.arena_bytes_peak, then — only
  /// when a budget is set and exceeded by *reserved* capacity — shrink the
  /// consumed arenas back to their in-flight footprint.
  void sample_and_trim_arenas();
  void step_sharded(Protocol& protocol);
  void merge_shard_logs();
  void emit_round_trace(std::uint64_t sent, std::uint64_t bits, std::uint64_t wakeups,
                        std::uint64_t wall_ns);
  std::uint64_t next_armed_round() const;
  void arm_wakeup(NodeId v, std::uint64_t delay);
  bool any_wakeup_armed() const { return wheel_armed_ != 0 || !far_wakeups_.empty(); }

  // --- async delivery (cfg.faults != nullptr) ---

  /// Routes one committed send through the fault plan: dropped messages
  /// vanish (counted), surviving ones are filed in the message delay wheel
  /// (or the far map) under round_ + latency.  With the reliable overlay
  /// engaged, the message is seq-stamped and buffered for retransmission
  /// first.  Serial only: called from the sequential send path and from the
  /// shard-log merge, never from inside a parallel section.
  void enqueue_async(NodeId from, NodeId to, const Message& msg);
  /// The transport tail of enqueue_async: link FIFO slot, drop decision,
  /// delay assignment, wheel filing.  Also carries the overlay's own traffic
  /// (retransmits, standalone acks), which shares the fate machinery of
  /// first sends.
  void file_async(NodeId from, NodeId to, std::size_t edge_id, const Message& msg);
  /// Fires the overlay timers due this round and files the resulting
  /// retransmit / standalone-ack messages (with Metrics accounting).
  void service_transport();
  /// Moves every message due this round from the delay wheel / far map into
  /// outbox_, applying crash-receiver drops and the receiver-side
  /// first-touch bookkeeping that the synchronous path does at send time.
  void mature_async_messages();
  /// Earliest round > round_ holding a pending delivery (UINT64_MAX: none).
  std::uint64_t next_delivery_round() const;
  bool any_delivery_pending() const { return delay_armed_ != 0 || !far_messages_.empty(); }
  /// Drops crashed nodes from the freshly built active set (serial pass).
  void filter_crashed_active();

  /// Directed-edge id of from→to in the graph's CSR layout (must be an edge).
  std::size_t edge_id(NodeId from, NodeId to) const {
    return graph_->row_offsets()[from] + graph_->neighbor_rank(from, to);
  }

  void send_from(ShardState* sh, NodeId from, NodeId to, const Message& msg);
  void send_ranked(ShardState* sh, NodeId from, std::size_t rank, const Message& msg);
  void commit_send(ShardState* sh, NodeId from, NodeId to, std::size_t rank, const Message& msg);
  [[noreturn]] void throw_non_neighbor(NodeId from, NodeId to) const;
  [[noreturn]] void throw_over_capacity(const MessageArena& round_outbox, NodeId from, NodeId to,
                                        const Message& msg) const;
  support::Rng& node_rng(NodeId v) { return rngs_[v]; }

  const graph::Graph* graph_;
  NetworkConfig cfg_;
  std::uint32_t shards_ = 1;       // resolved shard count
  std::uint32_t shard_grain_ = 32;  // resolved min active nodes per shard
  NodeStatsMode node_stats_ = NodeStatsMode::kFull;  // hoisted out of cfg_ for the send path
  std::uint64_t round_ = 0;
  Protocol* protocol_ = nullptr;
  std::uint64_t bits_per_word_ = 1;  // ⌈log₂ n⌉, hoisted out of the send path
  std::uint64_t arena_budget_bytes_ = 0;  // resolved cfg/DHC_ARENA_BUDGET (0 = unbounded)

  // Message arenas (double-buffered): sends append to outbox_ (directly on
  // sequential rounds, via the shard merge on sharded ones); delivery
  // scatters it into inbox_arena_, one contiguous slice per receiving node.
  MessageArena outbox_;       // send order; size == messages in flight
  MessageArena inbox_arena_;  // this round's inboxes, grouped by node
  std::vector<std::uint32_t> inbox_count_;   // per node: messages pending next round
  std::vector<std::uint32_t> inbox_off_;     // per node: slice start in inbox_arena_
  std::vector<std::uint32_t> inbox_len_;     // per node: slice length this round
  std::vector<std::uint32_t> inbox_cursor_;  // per node: scatter write cursor
  std::vector<NodeId> next_active_;          // first-touch receivers of outbox_
  std::uint64_t inbox_live_ = 0;             // messages scattered this round (logical)

  internal::SendBudget budget_;  // capacity scratch for sequential calls

  std::vector<NodeId> active_;          // nodes to step this round
  std::vector<std::uint8_t> has_mail_;  // dedup mail vs wake-up activation

  std::vector<std::vector<NodeId>> wheel_;  // kWheelSize buckets, reused
  std::size_t wheel_armed_ = 0;             // total nodes across wheel buckets
  std::priority_queue<std::pair<std::uint64_t, NodeId>,
                      std::vector<std::pair<std::uint64_t, NodeId>>,
                      std::greater<>>
      far_wakeups_;  // wake-ups ≥ kWheelSize rounds out (rare)

  // Async delivery state (allocated only when cfg.faults != nullptr).  The
  // message delay wheel mirrors the wake-up wheel: one bucket per upcoming
  // round; deliveries ≥ kWheelSize rounds out live in the ordered far map.
  // Bucket append order is the global send order, so maturation preserves
  // the arrival-order determinism the synchronous scatter guarantees.
  const FaultPlan* faults_ = nullptr;              // hoisted out of cfg_
  std::vector<std::uint64_t> link_free_at_;        // per directed edge: next free departure round
  std::vector<std::vector<Message>> delay_wheel_;  // kWheelSize buckets
  std::size_t delay_armed_ = 0;                    // messages across buckets
  std::map<std::uint64_t, std::vector<Message>> far_messages_;  // round → msgs
  std::size_t far_msg_armed_ = 0;                  // messages across the far map

  // Reliable-delivery overlay (congest/reliable.h).  Engaged only when the
  // plan requests reliability=ack AND can actually lose messages (drops or
  // crashes active): lossless runs bypass it entirely, which is what pins
  // reliability=ack bitwise-identical to reliability=none at drop=0.
  std::unique_ptr<ReliableOverlay> reliable_;
  std::vector<Message> transport_batch_;  // service_transport scratch
  std::vector<Message> drain_batch_;      // in-order release scratch

  std::vector<ShardState> shard_state_;          // size shards_ when sharding
  std::unique_ptr<support::WorkerPool> pool_;    // created on first sharded round

  // Shard-profiling scratch for the flight recorder (filled by step_sharded
  // only when a trace sink is attached; the RoundTrace spans point here).
  bool last_round_sharded_ = false;
  std::vector<std::uint64_t> trace_shard_wall_ns_;
  std::vector<std::uint32_t> trace_shard_active_;

  std::vector<support::Rng> rngs_;
  Metrics metrics_;
};

// ---------------------------------------------------------------------------
// Inline hot path.  One Context::send is one neighbor-rank lookup, one edge
// budget check, metric bumps, and a single 56-byte append — no intermediate
// Message copies (the old out-of-line path copied the struct three times)
// and no per-message allocation once the outbox has warmed up.  On sharded
// rounds the append, the global counters, and the receiver-side bookkeeping
// go to the shard log instead (one predictable branch); everything the send
// touches directly — the shard's own SendBudget and node_messages_sent[from]
// — is owned by the sending node's lane and therefore by exactly one shard.
// ---------------------------------------------------------------------------

inline void Network::arm_wakeup(NodeId v, std::uint64_t delay) {
  const std::uint64_t target = round_ + delay;
  if (delay < kWheelSize) {
    wheel_[target & kWheelMask].push_back(v);
    ++wheel_armed_;
  } else {
    far_wakeups_.emplace(target, v);
  }
}

inline Context::Context(Network& net, NodeId self, internal::ShardState* shard)
    : net_(net), self_(self), shard_(shard) {
  ++(shard == nullptr ? net.budget_ : shard->budget).stamp;
}

inline void Network::commit_send(ShardState* sh, NodeId from, NodeId to, std::size_t rank,
                                 const Message& msg) {
  // The per-round capacity discipline is a synchronous-schedule invariant.
  // Under async delivery a node may legally answer several delayed arrivals
  // at once; excess sends serialize through the link's FIFO queue
  // (enqueue_async) instead of faulting.
  if (faults_ == nullptr) {
    internal::SendBudget& budget = sh == nullptr ? budget_ : sh->budget;
    internal::SendBudget::Slot& slot = budget.slots[rank];
    if (slot.stamp != budget.stamp) {
      slot.stamp = budget.stamp;
      slot.load = 0;
    }
    if (++slot.load > cfg_.edge_capacity) {
      throw_over_capacity(sh == nullptr ? outbox_ : sh->outbox, from, to, msg);
    }
  }
  DHC_CHECK(msg.words <= kMaxWords, "message exceeds payload word limit");

  // Sender-side accounting: node_messages_sent[from] (and its compact
  // streaming twin) is owned by the sending node, hence by exactly one
  // shard — no atomics needed in any mode.
  if (node_stats_ == NodeStatsMode::kFull) {
    metrics_.node_messages_sent[from] += 1;
  } else if (node_stats_ == NodeStatsMode::kStreaming) {
    metrics_.node_sent32[from] += 1;
  }
  if (sh == nullptr) {
    metrics_.messages += 1;
    metrics_.bits += message_bits_for(msg.words, bits_per_word_);
    if (cfg_.observer != nullptr) cfg_.observer->on_send(from, to, round_);
    if (faults_ != nullptr) {
      // Async regime: the receiver-side bookkeeping happens at maturation,
      // not send, time (messages counts *sends*; received counts arrivals).
      enqueue_async(from, to, msg);
      return;
    }
    if (node_stats_ == NodeStatsMode::kFull) metrics_.node_messages_received[to] += 1;
    if (inbox_count_[to]++ == 0) next_active_.push_back(to);
    Message& slot = outbox_.emplace_back(msg);
    slot.from = from;
    slot.to = to;
  } else {
    sh->messages += 1;
    sh->bits += message_bits_for(msg.words, bits_per_word_);
    if (cfg_.observer != nullptr) sh->events.push_back({from, to, round_});
    Message& slot = sh->outbox.emplace_back(msg);
    slot.from = from;
    slot.to = to;
  }
}

inline void Network::send_from(ShardState* sh, NodeId from, NodeId to, const Message& msg) {
  const std::size_t rank = graph_->neighbor_rank(from, to);
  if (rank == graph::Graph::kNoRank) throw_non_neighbor(from, to);
  commit_send(sh, from, to, rank, msg);
}

inline void Network::send_ranked(ShardState* sh, NodeId from, std::size_t rank,
                                 const Message& msg) {
  const auto nb = graph_->neighbors(from);
  DHC_REQUIRE(rank < nb.size(), "send_to_rank: rank " << rank << " out of range for node " << from);
  commit_send(sh, from, nb[rank], rank, msg);
}

inline std::uint64_t Context::round() const { return net_.round_; }

inline std::span<const NodeId> Context::neighbors() const {
  return net_.graph_->neighbors(self_);
}

inline std::span<const Message> Context::inbox() const {
  return {net_.inbox_arena_.data() + net_.inbox_off_[self_], net_.inbox_len_[self_]};
}

inline void Context::send(NodeId to, const Message& msg) {
  net_.send_from(shard_, self_, to, msg);
}

inline void Context::send_to_rank(std::size_t rank, const Message& msg) {
  net_.send_ranked(shard_, self_, rank, msg);
}

inline void Context::wake_in(std::uint64_t delay) {
  DHC_REQUIRE(delay >= 1, "wake_in delay must be at least 1 round");
  if (shard_ == nullptr) {
    net_.arm_wakeup(self_, delay);
  } else {
    shard_->wakeups.emplace_back(delay, self_);
  }
}

inline support::Rng& Context::rng() { return net_.node_rng(self_); }

inline void Context::charge_memory(std::int64_t words) {
  if (net_.node_stats_ == NodeStatsMode::kFull) {
    auto& mem = net_.metrics_.node_memory_words[self_];
    mem += words;
    auto& peak = net_.metrics_.node_peak_memory_words[self_];
    peak = std::max(peak, mem);
  } else if (net_.node_stats_ == NodeStatsMode::kStreaming) {
    auto& mem = net_.metrics_.node_mem_cur32[self_];
    mem = static_cast<std::int32_t>(mem + words);
    auto& peak = net_.metrics_.node_mem_peak32[self_];
    peak = std::max(peak, mem);
  }
}

inline void Context::charge_compute(std::uint64_t ops) {
  if (net_.node_stats_ == NodeStatsMode::kFull) {
    net_.metrics_.node_compute_ops[self_] += ops;
  } else if (net_.node_stats_ == NodeStatsMode::kStreaming) {
    // Saturating: compute is charged in arbitrary-size chunks.
    auto& acc = net_.metrics_.node_compute32[self_];
    const std::uint64_t next = acc + ops;
    acc = next > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(next);
  }
}

}  // namespace dhc::congest
