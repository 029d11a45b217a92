// Probe protocols that time the CONGEST engine without any solver logic.
//
// Both run through congest::Network::run on a workload's own graph and have
// analytic message counts, which the benchmark checks exactly:
//
//   * FloodProbe — every node sends one message on each incident edge in
//     each of R rounds: R × 2m messages, every node active every round.  Its
//     wall time per message is the engine's per-message cost (send, scatter,
//     active-set build) with almost no protocol work on top.
//   * WalkProbe — T tokens random-walk for H hops each: T × H messages over
//     H rounds with at most T active nodes per round.  Its wall time per
//     round is the engine's fixed per-round cost.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "congest/network.h"
#include "support/rng.h"

namespace perfbench {

using dhc::congest::Context;
using dhc::congest::Message;
using dhc::graph::NodeId;

class FloodProbe final : public dhc::congest::Protocol {
 public:
  explicit FloodProbe(std::uint64_t rounds) : rounds_(rounds) {}

  void begin(Context& ctx) override { send_all(ctx); }

  void step(Context& ctx) override {
    if (ctx.round() < rounds_) send_all(ctx);
  }

 private:
  static void send_all(Context& ctx) {
    const Message msg = Message::make(1, {static_cast<std::int64_t>(ctx.self())});
    for (std::size_t rank = 0; rank < ctx.degree(); ++rank) ctx.send_to_rank(rank, msg);
  }

  std::uint64_t rounds_;
};

class WalkProbe final : public dhc::congest::Protocol {
 public:
  /// `tokens_at[v]` tokens start at node v; each makes `hops` hops.
  WalkProbe(std::vector<std::uint32_t> tokens_at, std::uint64_t hops)
      : tokens_at_(std::move(tokens_at)), hops_(hops) {}

  void begin(Context& ctx) override {
    forward(ctx, tokens_at_[ctx.self()], static_cast<std::int64_t>(hops_) - 1);
  }

  void step(Context& ctx) override {
    // Tokens arriving together carry the same hop count (they all left
    // their start in round 0), so they move on together.
    const auto inbox = ctx.inbox();
    if (!inbox.empty() && inbox.front().data[0] > 0) {
      forward(ctx, inbox.size(), inbox.front().data[0] - 1);
    }
  }

 private:
  // Sends `count` tokens to distinct random neighbors: one message per edge
  // per round, as CONGEST requires.
  static void forward(Context& ctx, std::size_t count, std::int64_t hops_left) {
    if (count == 0) return;
    const std::size_t degree = ctx.degree();
    if (count > degree) throw std::runtime_error("walk probe: more tokens than neighbors");
    const std::size_t base = ctx.rng().below(degree);
    const Message msg = Message::make(2, {hops_left});
    for (std::size_t i = 0; i < count; ++i) ctx.send_to_rank((base + i) % degree, msg);
  }

  std::vector<std::uint32_t> tokens_at_;
  std::uint64_t hops_;
};

}  // namespace perfbench
