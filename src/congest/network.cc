#include "congest/network.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

#include "congest/fault_plan.h"
#include "congest/reliable.h"
#include "support/quantile_sketch.h"
#include "support/require.h"

namespace dhc::congest {

namespace {

// Environment defaults for the sharding knobs: DHC_SHARDS / DHC_SHARD_GRAIN
// apply wherever the caller leaves NetworkConfig at 0, which is how the CI
// shard matrix runs the entire test suite sharded without per-test plumbing.
std::uint32_t env_or(const char* name, std::uint32_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed == 0 || parsed > 1u << 20) return fallback;
  return static_cast<std::uint32_t>(parsed);
}

// Byte-count environment knob (DHC_ARENA_BUDGET): full u64 range, since
// budgets are sized in hundreds of megabytes.  0/absent/garbage → fallback.
std::uint64_t env_bytes_or(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed == 0) return fallback;
  return static_cast<std::uint64_t>(parsed);
}

// How many messages ahead the stable scatter prefetches its destination:
// far enough to cover a DRAM miss at the loop's few-ns-per-message pace
// (DESIGN.md §4).
constexpr std::size_t kScatterPrefetch = 16;

void prefetch_for_write(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, 1);
#else
  (void)p;
#endif
}

// Stable scatter: copies src, in order, to dst[cursor[m.to]++], so send
// order becomes per-receiver arrival order.  The writes land in random
// receiver slices of an arena far larger than the caches, so the slot of the
// message kScatterPrefetch positions ahead is prefetched: its first and last
// byte, since a 56 B slot can straddle two cache lines.  That cursor is read
// early, so when a receiver takes several of the next kScatterPrefetch
// messages the prefetch lands a slot short and is merely wasted.  The copies
// are the plain loop's, so results never depend on the prefetch.
void scatter_stable(const MessageArena& src, std::uint32_t* cursor, Message* dst) {
  const std::size_t count = src.size();
  const std::size_t ahead_end = count > kScatterPrefetch ? count - kScatterPrefetch : 0;
  std::size_t i = 0;
  for (; i < ahead_end; ++i) {
    const auto* next = reinterpret_cast<const char*>(dst + cursor[src[i + kScatterPrefetch].to]);
    prefetch_for_write(next);
    prefetch_for_write(next + sizeof(Message) - 1);
    dst[cursor[src[i].to]++] = src[i];
  }
  for (; i < count; ++i) dst[cursor[src[i].to]++] = src[i];
}

}  // namespace

std::uint32_t default_shards() { return env_or("DHC_SHARDS", 1); }

std::uint64_t message_bits(const Message& msg, NodeId n) {
  // One word holds a node id (0..n-1), an index, or a size: ⌈log₂ n⌉ bits.
  const std::uint64_t id_bits =
      std::max<std::uint64_t>(1, std::bit_width(std::uint64_t{n > 0 ? n - 1 : 0}));
  return message_bits_for(msg.words, id_bits);
}

std::uint64_t Metrics::max_node_messages_sent() const {
  std::uint64_t best = 0;
  for (const auto x : node_messages_sent) best = std::max(best, x);
  for (const auto x : node_sent32) best = std::max<std::uint64_t>(best, x);
  if (node_messages_sent.empty() && node_sent32.empty()) {
    best = static_cast<std::uint64_t>(sent_summary.max);
  }
  return best;
}

std::int64_t Metrics::max_node_peak_memory() const {
  std::int64_t best = 0;
  for (const auto x : node_peak_memory_words) best = std::max(best, x);
  for (const auto x : node_mem_peak32) best = std::max<std::int64_t>(best, x);
  if (node_peak_memory_words.empty() && node_mem_peak32.empty()) {
    best = static_cast<std::int64_t>(peak_memory_summary.max);
  }
  return best;
}

std::uint64_t Metrics::max_node_compute() const {
  std::uint64_t best = 0;
  for (const auto x : node_compute_ops) best = std::max(best, x);
  for (const auto x : node_compute32) best = std::max<std::uint64_t>(best, x);
  if (node_compute_ops.empty() && node_compute32.empty()) {
    best = static_cast<std::uint64_t>(compute_summary.max);
  }
  return best;
}

namespace {

// Exact digest of a per-node vector: nearest-rank quantiles over a sorted
// copy (kFull mode; runs once at the end of a run).
template <class T>
NodeStatSummary exact_summary(const std::vector<T>& values) {
  NodeStatSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<T> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const T v : sorted) sum += static_cast<double>(v);
  s.sum = sum;
  s.max = static_cast<double>(sorted.back());
  const auto at = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(sorted.size() - 1),
                         q * static_cast<double>(sorted.size() - 1) + 0.5));
    return static_cast<double>(sorted[rank]);
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  return s;
}

// Sketch-backed digest (kStreaming mode): count/sum/max exact, quantiles
// within support::QuantileSketch::relative_error().
template <class T>
NodeStatSummary sketch_summary(const std::vector<T>& values) {
  NodeStatSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  support::QuantileSketch sketch;
  for (const T v : values) {
    if constexpr (std::is_signed_v<T>) {
      sketch.add(v < 0 ? 0 : static_cast<std::uint64_t>(v));
    } else {
      sketch.add(v);
    }
  }
  s.sum = sketch.sum();
  s.max = static_cast<double>(sketch.max());
  s.p50 = sketch.quantile(0.50);
  s.p95 = sketch.quantile(0.95);
  s.p99 = sketch.quantile(0.99);
  return s;
}

}  // namespace

void Metrics::finalize_node_stats() {
  switch (node_stats_mode) {
    case NodeStatsMode::kFull:
      sent_summary = exact_summary(node_messages_sent);
      received_summary = exact_summary(node_messages_received);
      peak_memory_summary = exact_summary(node_peak_memory_words);
      compute_summary = exact_summary(node_compute_ops);
      return;
    case NodeStatsMode::kStreaming:
      sent_summary = sketch_summary(node_sent32);
      received_summary = NodeStatSummary{};  // intentionally not tracked
      peak_memory_summary = sketch_summary(node_mem_peak32);
      compute_summary = sketch_summary(node_compute32);
      return;
    case NodeStatsMode::kOff:
      sent_summary = received_summary = peak_memory_summary = compute_summary =
          NodeStatSummary{};
      return;
  }
}

std::uint64_t Metrics::phase_rounds(const std::string& label) const {
  // A label may mark several spans (DHC2 re-marks "merge" every level); each
  // span runs to the next mark, the last one to rounds + 1.  Sum them all.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < phase_marks.size(); ++i) {
    if (phase_marks[i].first != label) continue;
    const std::uint64_t begin = phase_marks[i].second;
    const std::uint64_t end =
        (i + 1 < phase_marks.size()) ? phase_marks[i + 1].second : rounds + 1;
    if (end > begin) total += end - begin;
  }
  return total;
}

std::string to_string(NodeStatsMode mode) {
  switch (mode) {
    case NodeStatsMode::kFull:
      return "full";
    case NodeStatsMode::kStreaming:
      return "streaming";
    case NodeStatsMode::kOff:
      return "off";
  }
  return "full";
}

NodeStatsMode parse_node_stats_mode(const std::string& s) {
  if (s == "full") return NodeStatsMode::kFull;
  if (s == "streaming") return NodeStatsMode::kStreaming;
  if (s == "off") return NodeStatsMode::kOff;
  throw std::invalid_argument("unknown node_stats mode '" + s +
                              "' (expected full|streaming|off)");
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

Network::Network(const graph::Graph& g, NetworkConfig cfg) : graph_(&g), cfg_(cfg) {
  DHC_REQUIRE(cfg_.edge_capacity >= 1, "edge_capacity must be at least 1");
  shards_ = cfg_.shards != 0 ? cfg_.shards : default_shards();
  shard_grain_ = cfg_.shard_grain != 0 ? cfg_.shard_grain : env_or("DHC_SHARD_GRAIN", 32);
  arena_budget_bytes_ =
      cfg_.arena_budget_bytes != 0 ? cfg_.arena_budget_bytes : env_bytes_or("DHC_ARENA_BUDGET", 0);
  node_stats_ = cfg_.node_stats;
  const std::size_t n = g.n();
  bits_per_word_ = std::max<std::uint64_t>(
      1, std::bit_width(std::uint64_t{n > 0 ? n - 1 : 0}));
  inbox_count_.assign(n, 0);
  inbox_off_.assign(n, 0);
  inbox_len_.assign(n, 0);
  inbox_cursor_.assign(n, 0);
  has_mail_.assign(n, 0);
  budget_.slots.resize(g.max_degree());

  wheel_.resize(kWheelSize);

  faults_ = cfg_.faults;
  if (faults_ != nullptr) {
    delay_wheel_.resize(kWheelSize);
    // Per directed edge, indexed by the graph's CSR layout (edge_id()).
    const auto offsets = g.row_offsets();
    link_free_at_.assign(offsets.empty() ? 0 : offsets.back(), 0);
    if (faults_->round_limit() != 0) {
      cfg_.max_rounds = std::min(cfg_.max_rounds, faults_->round_limit());
    }
    // The reliable overlay engages only when the plan can actually lose
    // messages; a lossless reliability=ack run takes the exact
    // reliability=none path (bitwise, by construction).
    if (faults_->reliability().active() &&
        (faults_->drops_active() || faults_->crashes_active())) {
      reliable_ = std::make_unique<ReliableOverlay>(g, faults_->rto());
    }
  }

  const support::Rng base(cfg_.seed);
  rngs_.reserve(n);
  for (NodeId v = 0; v < g.n(); ++v) rngs_.push_back(base.stream(v));
}

Network::~Network() = default;

void Network::throw_non_neighbor(NodeId from, NodeId to) const {
  // A protocol that sends before choosing a destination passes kNoNode;
  // name the sentinel instead of printing its numeric value.
  const std::string target = to == kNoNode ? "kNoNode (unset destination)"
                                           : "non-neighbor " + std::to_string(to);
  throw CongestViolation("node " + std::to_string(from) + " sent to " + target + " in round " +
                         std::to_string(round_));
}

void Network::throw_over_capacity(const MessageArena& round_outbox, NodeId from, NodeId to,
                                  const Message& msg) const {
  // All of this round's prior sends on (from → to) live in the sender's own
  // outbox log — sequential or shard-local alike — so the diagnostic is
  // identical for every shard count.
  std::string prior_tags;
  for (const Message& queued : round_outbox) {
    if (queued.from == from && queued.to == to) {
      prior_tags += ' ';
      prior_tags += std::to_string(queued.tag);
    }
  }
  throw CongestViolation("edge (" + std::to_string(from) + "→" + std::to_string(to) +
                         ") over capacity in round " + std::to_string(round_) +
                         ": CONGEST allows " + std::to_string(cfg_.edge_capacity) +
                         " message(s) per edge per round (new tag " + std::to_string(msg.tag) +
                         ", queued tags:" + prior_tags + ")");
}

void Network::wake(NodeId v) {
  DHC_REQUIRE(v < graph_->n(), "wake: node out of range");
  arm_wakeup(v, 1);
}

void Network::wake_all() {
  auto& bucket = wheel_[(round_ + 1) & kWheelMask];
  for (NodeId v = 0; v < graph_->n(); ++v) bucket.push_back(v);
  wheel_armed_ += graph_->n();
}

void Network::mark_phase(const std::string& label) {
  metrics_.phase_marks.emplace_back(label, round_ + 1);
  if (cfg_.trace != nullptr) cfg_.trace->on_phase(label, round_ + 1);
}

void Network::set_barrier_cost(std::uint64_t rounds_per_barrier) {
  metrics_.barrier_cost_rounds = rounds_per_barrier;
}

std::uint64_t Network::next_armed_round() const {
  // Every wheel entry's round lies in (round_, round_ + kWheelSize), so one
  // sweep of the wheel starting after the current slot finds the nearest
  // armed bucket; far-future wake-ups only need the heap minimum.
  std::uint64_t best = static_cast<std::uint64_t>(-1);
  if (wheel_armed_ != 0) {
    for (std::uint64_t r = round_ + 1; r < round_ + kWheelSize; ++r) {
      if (!wheel_[r & kWheelMask].empty()) {
        best = r;
        break;
      }
    }
  }
  if (!far_wakeups_.empty()) best = std::min(best, far_wakeups_.top().first);
  DHC_CHECK(best != static_cast<std::uint64_t>(-1),
            "next_armed_round() called with no wake-up armed");
  return best;
}

void Network::enqueue_async(NodeId from, NodeId to, const Message& msg) {
  const std::size_t edge = edge_id(from, to);
  if (reliable_ == nullptr) {
    file_async(from, to, edge, msg);
    return;
  }
  // Reliable overlay: stamp a fresh seq + piggyback ack and buffer the copy
  // *before* the drop decision — a first send lost in transit must still be
  // retransmittable.
  Message stamped = msg;
  stamped.from = from;
  stamped.to = to;
  reliable_->stamp_and_buffer(edge, stamped, round_);
  file_async(from, to, edge, stamped);
}

void Network::file_async(NodeId from, NodeId to, std::size_t edge_id, const Message& msg) {
  // Each directed link serializes at one message per round: a message
  // departs at the later of "now" and the link's next free slot, so a
  // same-round burst (legal here — a node answering several delayed
  // arrivals at once) queues behind itself instead of tripping the
  // synchronous capacity check.  Departures per edge are strictly
  // increasing and the base delay is a pure function of the edge, so
  // arrivals stay in send order (FIFO) with or without queueing; a
  // sync-legal schedule never queues, keeping latency-1 runs bitwise
  // equal to the synchronous engine.
  std::uint64_t& free_at = link_free_at_[edge_id];
  const std::uint64_t depart = std::max(round_, free_at);
  free_at = depart + 1;
  if (faults_->drop(from, to, round_)) {  // lost in transit; the slot is spent
    metrics_.dropped_messages += 1;
    return;
  }
  const std::uint64_t latency = (depart - round_) + faults_->delay(from, to);
  if (latency > 1) metrics_.delayed_messages += 1;
  const std::uint64_t target = round_ + latency;
  auto& bucket =
      latency < kWheelSize ? delay_wheel_[target & kWheelMask] : far_messages_[target];
  if (latency < kWheelSize) {
    ++delay_armed_;
  } else {
    ++far_msg_armed_;
  }
  Message& slot = bucket.emplace_back(msg);
  slot.from = from;
  slot.to = to;
}

void Network::service_transport() {
  // Retransmits and standalone acks the overlay owes this round, in
  // deterministic timer order, routed through the same link-FIFO/drop/delay
  // machinery as first sends (a retransmit can be dropped again — each round
  // is an independent drop hash, so it eventually gets through).  Transport
  // traffic counts in messages/bits (acks at header-only cost) but not in
  // the per-node send stats, which stay protocol-only.
  transport_batch_.clear();
  reliable_->collect_due(
      round_, [&](NodeId v) { return faults_->crashed(v, round_); }, transport_batch_);
  for (const Message& m : transport_batch_) {
    if (m.rel_seq != 0) {
      metrics_.retransmits += 1;
      metrics_.bits += message_bits_for(m.words, bits_per_word_);
    } else {
      metrics_.acks_sent += 1;
      metrics_.bits += message_bits_for(0, bits_per_word_);
    }
    metrics_.messages += 1;
    file_async(m.from, m.to, edge_id(m.from, m.to), m);
  }
}

std::uint64_t Network::next_delivery_round() const {
  std::uint64_t best = static_cast<std::uint64_t>(-1);
  if (delay_armed_ != 0) {
    for (std::uint64_t r = round_ + 1; r < round_ + kWheelSize; ++r) {
      if (!delay_wheel_[r & kWheelMask].empty()) {
        best = r;
        break;
      }
    }
  }
  if (!far_messages_.empty()) best = std::min(best, far_messages_.begin()->first);
  return best;
}

void Network::mature_async_messages() {
  // Overlay timers first: the retransmits/acks they file are sends *at* this
  // round (latency >= 1), so they never interact with this round's matured
  // arrivals below — the split is purely for a fixed service order.
  if (reliable_ != nullptr) service_transport();

  // Far entries mature before the wheel bucket: a far message due this round
  // was filed with latency >= kWheelSize, i.e. sent at least kWheelSize
  // rounds ago, while every wheel message due now was sent strictly later —
  // so far-then-wheel, each vector in append order, IS the global send
  // order, and per-node arrival order stays send-order just like the
  // synchronous scatter.
  const auto deliver_one = [&](const Message& m) {
    if (node_stats_ == NodeStatsMode::kFull) metrics_.node_messages_received[m.to] += 1;
    if (inbox_count_[m.to]++ == 0) next_active_.push_back(m.to);
    outbox_.push_back(m);
  };
  const auto deliver = [&](std::vector<Message>& msgs) {
    for (const Message& m : msgs) {
      if (faults_->crashed(m.to, round_)) {
        // Crashed receivers lose even overlay traffic — no ack forms, so the
        // sender's timer keeps the payload alive until after the rejoin.
        metrics_.crash_dropped_messages += 1;
        continue;
      }
      if (reliable_ == nullptr) {
        deliver_one(m);
        continue;
      }
      // Overlay arrival: process the piggybacked ack, then deliver / buffer /
      // suppress the payload.  Standalone acks and buffered/duplicate
      // payloads never reach the protocol (no activation, no received
      // count); an in-order payload releases any buffered successors with
      // it, in seq order.
      const std::size_t edge = edge_id(m.from, m.to);
      switch (reliable_->on_arrival(edge, m, round_)) {
        case ReliableOverlay::Arrival::kAck:
          break;
        case ReliableOverlay::Arrival::kBuffer:
          break;
        case ReliableOverlay::Arrival::kDuplicate:
          metrics_.dup_suppressed += 1;
          break;
        case ReliableOverlay::Arrival::kDeliver:
          deliver_one(m);
          drain_batch_.clear();
          reliable_->drain_in_order(edge, drain_batch_);
          for (const Message& d : drain_batch_) deliver_one(d);
          break;
      }
    }
  };
  const auto due = far_messages_.begin();
  if (due != far_messages_.end() && due->first <= round_) {
    DHC_CHECK(due->first == round_, "far async delivery overshot its round");
    deliver(due->second);
    far_msg_armed_ -= due->second.size();
    far_messages_.erase(due);
  }
  auto& bucket = delay_wheel_[round_ & kWheelMask];
  delay_armed_ -= bucket.size();
  deliver(bucket);
  bucket.clear();
}

void Network::filter_crashed_active() {
  // Serial pass over the freshly built active set: crashed nodes neither
  // step nor keep their wake-up activation (the wake-up was consumed from
  // the wheel; recovery is a silent rejoin, not a re-arm).  Mail-activated
  // nodes are never crashed here — their messages were already dropped at
  // maturation — so clearing inbox state is belt-and-braces only.
  std::size_t w = 0;
  for (const NodeId v : active_) {
    if (faults_->crashed(v, round_)) {
      has_mail_[v] = 0;
      inbox_len_[v] = 0;
      metrics_.crashed_steps += 1;
      continue;
    }
    active_[w++] = v;
  }
  active_.resize(w);
}

void Network::deliver_and_build_active_set() {
  // Async regime: move every message whose latency elapses this round into
  // the outbox first; the synchronous mail walk below then treats them
  // exactly like last round's sends.
  if (faults_ != nullptr) mature_async_messages();

  // Mail first: walk the receivers in first-touch order, carve each node's
  // contiguous slice out of the inbox arena, and reset its pending count.
  active_.clear();
  std::uint32_t cum = 0;
  for (const NodeId v : next_active_) {
    has_mail_[v] = 1;
    active_.push_back(v);
    inbox_off_[v] = cum;
    inbox_cursor_[v] = cum;
    inbox_len_[v] = inbox_count_[v];
    cum += inbox_count_[v];
    inbox_count_[v] = 0;
  }
  next_active_.clear();

  // Wake-ups for this round: the wheel bucket plus any matured far entries.
  auto& bucket = wheel_[round_ & kWheelMask];
  wheel_armed_ -= bucket.size();
  for (const NodeId v : bucket) {
    if (has_mail_[v] == 0) {
      has_mail_[v] = 1;
      active_.push_back(v);
    }
  }
  bucket.clear();
  while (!far_wakeups_.empty() && far_wakeups_.top().first == round_) {
    const NodeId v = far_wakeups_.top().second;
    far_wakeups_.pop();
    if (has_mail_[v] == 0) {
      has_mail_[v] = 1;
      active_.push_back(v);
    }
  }
  // Steps must run in ascending node order (protocol RNG draws, send order,
  // and the contiguity of shard slices all depend on it).  For dense rounds
  // — flood phases activate nearly every node — rebuilding the set from the
  // has_mail_ bitmap is linear and branch-predictable; the ascending scan is
  // sorted by construction, so no sort runs on this path (asserted in debug
  // builds).  Sparse rounds sort the activation-ordered list directly.
  if (active_.size() >= graph_->n() / 8) {
    active_.clear();
    const NodeId n = graph_->n();
    for (NodeId v = 0; v < n; ++v) {
      if (has_mail_[v] != 0) active_.push_back(v);
    }
#ifndef NDEBUG
    DHC_CHECK(std::is_sorted(active_.begin(), active_.end()),
              "dense active-set rebuild must be id-sorted by construction");
#endif
  } else {
    std::sort(active_.begin(), active_.end());
  }

  if (faults_ != nullptr && faults_->crashes_active()) filter_crashed_active();

  // Stable scatter: outbox send order becomes per-node arrival order.
  inbox_live_ = outbox_.size();
  if (inbox_arena_.size() < outbox_.size()) {
    // Budgeted runs reserve exactly what this round needs; unbudgeted runs
    // keep vector growth (amortized doubling) for raw speed.
    if (arena_budget_bytes_ != 0) inbox_arena_.reserve(outbox_.size());
    inbox_arena_.resize(outbox_.size());
  }
  scatter_stable(outbox_, inbox_cursor_.data(), inbox_arena_.data());
  outbox_.clear();
}

void Network::sample_and_trim_arenas() {
  // Logical in-flight messages at the round epilogue: sends queued for next
  // round (outbox log), this round's delivered inboxes, and everything
  // parked in the async delay structures.  Logical counts only — vector
  // capacities differ across shard counts, these numbers never do.
  const std::uint64_t in_flight =
      static_cast<std::uint64_t>(outbox_.size()) + inbox_live_ + delay_armed_ + far_msg_armed_;
  const std::uint64_t bytes = in_flight * sizeof(Message);
  if (bytes > metrics_.arena_bytes_peak) metrics_.arena_bytes_peak = bytes;
  if (arena_budget_bytes_ == 0) return;

  // Budget enforcement is a pure capacity policy: reserved-but-idle slots
  // are released when they exceed the budget, contents are never touched.
  const auto bytes_of = [](const auto& v) {
    return v.capacity() * sizeof(Message);
  };
  std::size_t reserved = bytes_of(outbox_) + bytes_of(inbox_arena_);
  for (const auto& b : delay_wheel_) reserved += bytes_of(b);
  for (const ShardState& sh : shard_state_) reserved += bytes_of(sh.outbox);
  if (reserved <= arena_budget_bytes_) return;

  // The inbox arena was fully consumed by this round's steps; next round
  // rebuilds it from the outbox, so its floor is the current outbox size.
  inbox_arena_.resize(outbox_.size());
  inbox_arena_.shrink_to_fit();
  outbox_.shrink_to_fit();  // keeps contents, drops slack
  for (auto& b : delay_wheel_) {
    if (b.empty() && b.capacity() != 0) std::vector<Message>().swap(b);
  }
  for (ShardState& sh : shard_state_) {
    if (sh.outbox.empty()) sh.outbox.shrink_to_fit();
  }
}

void Network::step_active_set(Protocol& protocol) {
  // The shard engine pays a per-round dispatch (pool wake + serial merge);
  // rounds too small to amortize it step sequentially.  The gate depends
  // only on deterministic state — active-set size, shard knobs, and the
  // protocol's phase — so the choice of path is itself deterministic, and
  // both paths produce bitwise-identical results by construction.
  const bool shard_this_round = shards_ > 1 &&
                                active_.size() >= static_cast<std::size_t>(shards_) * shard_grain_ &&
                                protocol.parallel_step_safe();
  last_round_sharded_ = shard_this_round;
  if (!shard_this_round) {
    for (const NodeId v : active_) {
      Context ctx(*this, v, nullptr);
      protocol.step(ctx);
    }
    return;
  }
  step_sharded(protocol);
}

void Network::step_sharded(Protocol& protocol) {
  if (pool_ == nullptr) {
    shard_state_.resize(shards_);
    for (ShardState& sh : shard_state_) sh.budget.slots.resize(budget_.slots.size());
    // The shard *partition* is fixed by shards_; the pool merely executes
    // it, so worker count is capped by the hardware without affecting
    // results (a 1-lane pool steps the shards back to back, in order).
    pool_ = std::make_unique<support::WorkerPool>(
        std::min<unsigned>(shards_, support::WorkerPool::hardware_lanes()));
  }
  const std::size_t count = active_.size();
  const std::size_t s = shards_;
  // Per-shard step timing for the flight recorder; the clocks run only when
  // a sink is attached so untraced runs keep the exact pre-trace hot path.
  const bool profile = cfg_.trace != nullptr;
  if (profile && trace_shard_wall_ns_.size() != s) {
    trace_shard_wall_ns_.assign(s, 0);
    trace_shard_active_.assign(s, 0);
  }
  pool_->run(s, [&](std::size_t shard_index) {
    ShardState& sh = shard_state_[shard_index];
    const std::size_t begin = count * shard_index / s;
    const std::size_t end = count * (shard_index + 1) / s;
    const auto t0 = profile ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
    for (std::size_t i = begin; i < end; ++i) {
      Context ctx(*this, active_[i], &sh);
      protocol.step(ctx);
    }
    if (profile) {
      trace_shard_wall_ns_[shard_index] = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      trace_shard_active_[shard_index] = static_cast<std::uint32_t>(end - begin);
    }
  });
  merge_shard_logs();
}

void Network::merge_shard_logs() {
  // Serial replay of the receiver-side bookkeeping, in shard order.  Shards
  // are contiguous slices of the id-sorted active set and each shard's log
  // is in its own send order, so this loop walks the messages in exactly
  // the global sequential send order: next_active_ first-touch order, inbox
  // scatter order, wheel bucket contents, and the observer event stream all
  // come out identical to the sequential stepper's.
  for (ShardState& sh : shard_state_) {
    metrics_.messages += sh.messages;
    metrics_.bits += sh.bits;
    sh.messages = 0;
    sh.bits = 0;
    if (cfg_.observer != nullptr && !sh.events.empty()) {
      cfg_.observer->on_events({sh.events.data(), sh.events.size()});
      sh.events.clear();
    }
    if (faults_ != nullptr) {
      // Async regime: replay each send through the fault plan in the global
      // send order.  Every drop/delay decision is a pure hash of the edge
      // and round, so this serial replay makes exactly the decisions the
      // sequential path makes — shard invariance needs no extra argument.
      for (const Message& m : sh.outbox) enqueue_async(m.from, m.to, m);
    } else if (node_stats_ == NodeStatsMode::kFull) {
      for (const Message& m : sh.outbox) {
        metrics_.node_messages_received[m.to] += 1;
        if (inbox_count_[m.to]++ == 0) next_active_.push_back(m.to);
      }
      outbox_.insert(outbox_.end(), sh.outbox.begin(), sh.outbox.end());
    } else {
      for (const Message& m : sh.outbox) {
        if (inbox_count_[m.to]++ == 0) next_active_.push_back(m.to);
      }
      outbox_.insert(outbox_.end(), sh.outbox.begin(), sh.outbox.end());
    }
    sh.outbox.clear();
    for (const auto& [delay, v] : sh.wakeups) arm_wakeup(v, delay);
    sh.wakeups.clear();
  }
}

void Network::emit_round_trace(std::uint64_t sent, std::uint64_t bits, std::uint64_t wakeups,
                               std::uint64_t wall_ns) {
  RoundTrace rt;
  rt.round = round_;
  rt.active = active_.size();
  rt.sent = sent;
  rt.bits = bits;
  rt.wakeups = wakeups;
  rt.wall_ns = wall_ns;
  rt.sharded = last_round_sharded_;
  if (last_round_sharded_ && trace_shard_wall_ns_.size() == shards_) {
    rt.shard_wall_ns = {trace_shard_wall_ns_.data(), trace_shard_wall_ns_.size()};
    rt.shard_active = {trace_shard_active_.data(), trace_shard_active_.size()};
  }
  cfg_.trace->on_round(rt);
}

Metrics Network::run(Protocol& protocol) {
  const std::size_t n = graph_->n();
  metrics_ = Metrics{};
  metrics_.node_stats_mode = node_stats_;
  switch (node_stats_) {
    case NodeStatsMode::kFull:
      metrics_.node_messages_sent.assign(n, 0);
      metrics_.node_messages_received.assign(n, 0);
      metrics_.node_memory_words.assign(n, 0);
      metrics_.node_peak_memory_words.assign(n, 0);
      metrics_.node_compute_ops.assign(n, 0);
      break;
    case NodeStatsMode::kStreaming:
      metrics_.node_sent32.assign(n, 0);
      metrics_.node_mem_cur32.assign(n, 0);
      metrics_.node_mem_peak32.assign(n, 0);
      metrics_.node_compute32.assign(n, 0);
      break;
    case NodeStatsMode::kOff:
      break;
  }
  round_ = 0;
  protocol_ = &protocol;
  const bool tracing = cfg_.trace != nullptr;

  for (NodeId v = 0; v < graph_->n(); ++v) {
    Context ctx(*this, v, nullptr);
    protocol.begin(ctx);
  }

  bool rejoins_counted = false;
  while (true) {
    const bool delivery_pending = faults_ != nullptr && any_delivery_pending();
    const bool transport_pending = reliable_ != nullptr && reliable_->any_pending();
    if (outbox_.empty() && !any_wakeup_armed() && !delivery_pending && !transport_pending) {
      if (!protocol.on_quiescence(*this)) break;
      metrics_.barrier_count += 1;
      if (tracing) cfg_.trace->on_barrier(round_, metrics_.barrier_cost_rounds);
      DHC_CHECK(any_wakeup_armed(),
                "protocol continued past quiescence without waking any node (would spin forever)");
      continue;
    }

    // Advance to the next round with activity (idle gaps still count).  The
    // async regime jumps to the earliest event of either kind — a pending
    // delivery or an armed wake-up — so no delay-wheel bucket is ever
    // skipped past; the synchronous regime keeps the classic rule.
    if (faults_ != nullptr) {
      std::uint64_t next = next_delivery_round();
      if (reliable_ != nullptr) next = std::min(next, reliable_->next_event_round(round_));
      if (any_wakeup_armed()) next = std::min(next, next_armed_round());
      DHC_CHECK(next != static_cast<std::uint64_t>(-1),
                "async advance with neither deliveries, transport timers, nor wake-ups pending");
      round_ = next;
    } else {
      round_ = outbox_.empty() ? next_armed_round() : round_ + 1;
    }
    if (round_ > cfg_.max_rounds) {
      metrics_.hit_round_limit = true;
      // Stalled vs live: a run still moving traffic (sends queued, matured or
      // pending deliveries, armed retransmit/ack timers) hit the limit mid
      // flight — e.g. turau's delay livelock; one with only wake-up polling
      // left is the drop-stall signature (nothing will ever arrive again).
      metrics_.round_limit_live = !outbox_.empty() ||
                                  (faults_ != nullptr && any_delivery_pending()) ||
                                  (reliable_ != nullptr && reliable_->any_pending());
      break;
    }
    if (faults_ != nullptr && !rejoins_counted && faults_->crashes_active() &&
        round_ >= faults_->crash_rejoin_round()) {
      // First executed round past the crash window: the crashed nodes are
      // back, silently, with whatever state they crashed with (DESIGN.md
      // §8).  Count them once and mark the round so the masked failure mode
      // is visible in artifacts and traces.
      rejoins_counted = true;
      metrics_.crashed_rejoins = faults_->crashed_node_count(graph_->n());
      if (tracing && metrics_.crashed_rejoins != 0) {
        cfg_.trace->on_rejoin(round_, metrics_.crashed_rejoins);
      }
    }

    if (tracing) {
      // Counter snapshots bracket the round so the record carries this
      // round's deltas; the wall clock runs only on this traced path.
      const std::uint64_t msgs0 = metrics_.messages;
      const std::uint64_t bits0 = metrics_.bits;
      const std::uint64_t delayed0 = metrics_.delayed_messages;
      const std::uint64_t dropped0 = metrics_.dropped_messages;
      const std::uint64_t crash_dropped0 = metrics_.crash_dropped_messages;
      const std::uint64_t crashed0 = metrics_.crashed_steps;
      const std::uint64_t retrans0 = metrics_.retransmits;
      const std::uint64_t dup0 = metrics_.dup_suppressed;
      const std::uint64_t acks0 = metrics_.acks_sent;
      const auto t0 = std::chrono::steady_clock::now();
      deliver_and_build_active_set();
      const std::uint64_t wake0 = wheel_armed_ + far_wakeups_.size();
      step_active_set(protocol);
      const auto wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      const std::uint64_t wake1 = wheel_armed_ + far_wakeups_.size();
      emit_round_trace(metrics_.messages - msgs0, metrics_.bits - bits0,
                       wake1 > wake0 ? wake1 - wake0 : 0, wall_ns);
      if (faults_ != nullptr) {
        FaultTrace ft;
        ft.round = round_;
        ft.delayed = metrics_.delayed_messages - delayed0;
        ft.dropped = metrics_.dropped_messages - dropped0;
        ft.crash_dropped = metrics_.crash_dropped_messages - crash_dropped0;
        ft.crashed_steps = metrics_.crashed_steps - crashed0;
        if (ft.delayed + ft.dropped + ft.crash_dropped + ft.crashed_steps > 0) {
          cfg_.trace->on_faults(ft);
        }
        if (reliable_ != nullptr) {
          RetransTrace rt2;
          rt2.round = round_;
          rt2.retransmits = metrics_.retransmits - retrans0;
          rt2.dup_suppressed = metrics_.dup_suppressed - dup0;
          rt2.acks_sent = metrics_.acks_sent - acks0;
          if (rt2.retransmits + rt2.dup_suppressed + rt2.acks_sent > 0) {
            cfg_.trace->on_retrans(rt2);
          }
        }
      }
    } else {
      deliver_and_build_active_set();
      step_active_set(protocol);
    }

    sample_and_trim_arenas();

    for (const NodeId v : active_) {
      inbox_len_[v] = 0;
      has_mail_[v] = 0;
    }
  }

  metrics_.rounds = round_;
  metrics_.finalize_node_stats();
  protocol_ = nullptr;
  return metrics_;
}

}  // namespace dhc::congest
