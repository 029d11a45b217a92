// CONGEST-model messages.
//
// The CONGEST model (Peleg [23]; paper §I-A) allows each node to send one
// O(log n)-bit message per incident edge per round.  We make that budget
// concrete: a message carries up to kMaxWords payload words, where one word
// is one Θ(log n)-bit field (a node id, an index, a size).  The bandwidth is
// therefore B = kMaxWords·⌈log₂ n⌉ + O(1) bits, the standard allowance; the
// network layer rejects attempts to push more than `edge_capacity` messages
// onto one directed edge in one round, so model violations fail loudly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "support/huge_page_allocator.h"

namespace dhc::congest {

using graph::NodeId;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Maximum payload words per message (each word ≈ one ⌈log₂ n⌉-bit field).
inline constexpr std::size_t kMaxWords = 4;

/// One CONGEST message.  `tag` identifies the protocol-level message type;
/// `data[0..words)` are the payload fields.
///
/// `rel_seq`/`rel_ack` are the reliable-delivery overlay header
/// (congest/reliable.h): a per-directed-link sequence number (0 = unstamped
/// — synchronous runs and reliability=none leave both fields untouched) and
/// the piggybacked cumulative ack for the reverse direction.  A message with
/// rel_seq == 0 and rel_ack > 0 is a standalone ack (transport-only, never
/// delivered to the protocol).  The header rides free in the bit accounting:
/// real stacks fold seq/ack numbers into the O(1) framing the tag byte
/// already stands for.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint16_t tag = 0;
  std::uint16_t words = 0;
  std::uint32_t rel_seq = 0;
  std::uint32_t rel_ack = 0;
  std::array<std::int64_t, kMaxWords> data{};

  /// Convenience constructor: tag + up to kMaxWords payload words.
  static Message make(std::uint16_t tag, std::initializer_list<std::int64_t> payload = {}) {
    Message m;
    m.tag = tag;
    for (const std::int64_t w : payload) {
      m.data[m.words++] = w;
    }
    return m;
  }
};

// Metrics::arena_bytes_peak is in-flight messages × sizeof(Message), so this
// size is pinned by perfbench/pins.json and the congest_golden digests:
// changing it changes observable counters, not just speed.
static_assert(sizeof(Message) == 56, "Message size is pinned by arena_bytes_peak goldens");

/// A message on the async path (delay wheel, far map, overlay output)
/// together with the CSR id of the directed edge it travels
/// (graph row_offsets()[from] + neighbor rank): the id is known at send time
/// and carried to maturation, so the async path never searches an adjacency
/// row for it.
struct TransitMessage {
  Message msg;
  std::size_t edge = 0;
};

/// The simulator's message buffers (outbox log, inbox arena, shard logs):
/// huge-page backed when large (support/huge_page_allocator.h).
using MessageArena = std::vector<Message, support::HugePageAllocator<Message>>;

/// Bits for a message of `words` payload words when one word costs
/// `id_bits` bits: the single definition of the CONGEST bit model, shared
/// by message_bits() and the simulator's inline send path (which hoists
/// id_bits = ⌈log₂ n⌉ out of the loop).
inline std::uint64_t message_bits_for(std::uint64_t words, std::uint64_t id_bits) {
  return words * id_bits + 8;  // payload fields + tag byte
}

/// Bits consumed by a message in a network of n nodes: words·⌈log₂ n⌉ plus a
/// constant tag byte.  Used for the bit-complexity metrics (EXP-M1).
std::uint64_t message_bits(const Message& msg, NodeId n);

}  // namespace dhc::congest
