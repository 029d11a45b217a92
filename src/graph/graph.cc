#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/require.h"

namespace dhc::graph {

namespace {

// Packs an edge as (a << 32) | b: numeric key order is lexicographic (a, b)
// order.
std::uint64_t pack(std::uint64_t a, std::uint64_t b) { return (a << 32) | b; }

// LSD radix sort of packed (min, max) keys — for the multi-million-edge
// lists the dense experiments build, it replaces the comparison sort that
// used to dominate Graph construction.
void sort_keys(std::vector<std::uint64_t>& keys, NodeId n) {
  // The min occupies bits [32, 32 + bit_width(n-1)); the max the low bits.
  const std::uint32_t key_bits =
      32 + std::max<std::uint32_t>(1, std::bit_width(std::uint64_t{n - 1}));
  constexpr std::uint32_t kDigitBits = 16;
  constexpr std::size_t kBuckets = 1u << kDigitBits;
  std::vector<std::uint64_t> scratch(keys.size());
  std::vector<std::size_t> count(kBuckets);
  for (std::uint32_t shift = 0; shift < key_bits; shift += kDigitBits) {
    std::fill(count.begin(), count.end(), 0);
    for (const auto k : keys) ++count[(k >> shift) & (kBuckets - 1)];
    std::size_t sum = 0;
    for (auto& c : count) {
      const std::size_t next = sum + c;
      c = sum;
      sum = next;
    }
    for (const auto k : keys) scratch[count[(k >> shift) & (kBuckets - 1)]++] = k;
    keys.swap(scratch);
  }
}

// Fills the CSR from a duplicate-free edge list that is strictly increasing
// in (min, max) or in (max, min) order; for_each_edge(f) calls f(u, v) per
// edge, in list order.  Scattering such a list fills every row already
// sorted, so there is no per-row sort pass: in (min, max) order node w's
// lower neighbors arrive from (u, w) edges in increasing u, all before the
// (w, x) edges that append its higher neighbors in increasing x; in
// (max, min) order the (w, u) edges (u < w) come first in increasing u,
// then the (x, w) edges (x > w) in increasing x.  graph_core_test pins
// both orders against a reference adjacency built with std::set.
template <class ForEachEdge>
void fill_rows(NodeId n, ForEachEdge for_each_edge, std::vector<std::uint64_t>& offsets,
               std::vector<NodeId>& adjacency) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for_each_edge([&](NodeId u, NodeId v) {
    ++offsets[static_cast<std::size_t>(u) + 1];
    ++offsets[static_cast<std::size_t>(v) + 1];
  });
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  adjacency.assign(offsets[n], 0);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for_each_edge([&](NodeId u, NodeId v) {
    adjacency[cursor[u]++] = v;
    adjacency[cursor[v]++] = u;
  });
}

}  // namespace

Graph::Graph(NodeId n, const std::vector<Edge>& edges) : n_(n) {
  // Scan-order lists — G(n, p) geometric skipping emits (max, min) order,
  // collected edge lists come in (min, max) order — go straight into the
  // CSR.  Every key is nonzero (max >= 1), so 0 starts both comparisons.
  bool min_major = true;
  bool max_major = true;
  std::uint64_t last_min_major = 0;
  std::uint64_t last_max_major = 0;
  for (const auto& [u, v] : edges) {
    DHC_REQUIRE(u < n && v < n, "edge (" << u << "," << v << ") outside node range [0," << n << ")");
    DHC_REQUIRE(u != v, "self-loop at node " << u);
    const std::uint64_t min_key = pack(std::min(u, v), std::max(u, v));
    const std::uint64_t max_key = pack(std::max(u, v), std::min(u, v));
    min_major = min_major && min_key > last_min_major;
    max_major = max_major && max_key > last_max_major;
    last_min_major = min_key;
    last_max_major = max_key;
  }
  if (min_major || max_major) {
    fill_rows(
        n, [&](auto&& f) { for (const auto& [u, v] : edges) f(u, v); }, offsets_, adjacency_);
    return;
  }

  // Anything else is canonicalized, radix-sorted and deduplicated first.
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const auto& [u, v] : edges) keys.push_back(pack(std::min(u, v), std::max(u, v)));
  sort_keys(keys, n);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  fill_rows(
      n,
      [&](auto&& f) {
        for (const auto k : keys) f(static_cast<NodeId>(k >> 32), static_cast<NodeId>(k));
      },
      offsets_, adjacency_);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  DHC_REQUIRE(u < n_ && v < n_, "has_edge(" << u << "," << v << ") outside node range");
  return neighbor_rank(u, v) != kNoRank;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(m());
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (NodeId v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> nodes) {
  std::vector<NodeId> to_original(nodes.begin(), nodes.end());
  std::vector<NodeId> to_new(g.n(), static_cast<NodeId>(-1));
  for (std::size_t i = 0; i < to_original.size(); ++i) {
    const NodeId old_id = to_original[i];
    DHC_REQUIRE(old_id < g.n(), "induced_subgraph: node " << old_id << " out of range");
    DHC_REQUIRE(to_new[old_id] == static_cast<NodeId>(-1),
                "induced_subgraph: duplicate node " << old_id);
    to_new[old_id] = static_cast<NodeId>(i);
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < to_original.size(); ++i) {
    for (NodeId w : g.neighbors(to_original[i])) {
      const NodeId j = to_new[w];
      if (j != static_cast<NodeId>(-1) && static_cast<NodeId>(i) < j) {
        edges.emplace_back(static_cast<NodeId>(i), j);
      }
    }
  }
  return InducedSubgraph{Graph(static_cast<NodeId>(to_original.size()), edges),
                         std::move(to_original)};
}

}  // namespace dhc::graph
