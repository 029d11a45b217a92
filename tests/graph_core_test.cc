// Unit tests for the CSR Graph core: construction, adjacency queries,
// canonicalization, induced subgraphs, and the CSR representation
// invariants the CONGEST hot path depends on (sorted deduplicated rows,
// degree-consistent offsets, iteration order matching a reference
// adjacency built independently with ordered sets).
#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "support/rng.h"

namespace dhc::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g(0, {});
  EXPECT_EQ(g.n(), 0u);
  EXPECT_EQ(g.m(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, SingleNodeNoEdges) {
  const Graph g(1, {});
  EXPECT_EQ(g.n(), 1u);
  EXPECT_EQ(g.m(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, TriangleBasics) {
  const Graph g(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, DuplicateAndReversedEdgesMerged) {
  const Graph g(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.m(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, OutOfRangeEdgeRejected) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{7, 1}}), std::invalid_argument);
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g(6, {{3, 5}, {3, 1}, {3, 4}, {3, 0}});
  const auto nb = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, HasEdgeNegativeCases) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_THROW(g.has_edge(0, 4), std::invalid_argument);
}

TEST(Graph, EdgesRoundTripCanonical) {
  const std::vector<Edge> in{{2, 0}, {1, 3}, {0, 1}};
  const Graph g(4, in);
  const auto out = g.edges();
  EXPECT_EQ(out, (std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}}));
}

TEST(Graph, MaxDegreeStar) {
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(InducedSubgraph, PreservesInternalEdgesOnly) {
  // Square 0-1-2-3 plus diagonal 0-2; induce on {0, 1, 2}.
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const std::vector<NodeId> nodes{0, 1, 2};
  const auto sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.n(), 3u);
  EXPECT_EQ(sub.graph.m(), 3u);  // edges 0-1, 1-2, 0-2
  EXPECT_EQ(sub.to_original, nodes);
  EXPECT_TRUE(sub.graph.has_edge(0, 2));
}

TEST(InducedSubgraph, RespectsNodeOrderMapping) {
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<NodeId> nodes{3, 1, 2};
  const auto sub = induced_subgraph(g, nodes);
  // new ids: 3->0, 1->1, 2->2; edges 1-2 (old) -> 1-2 (new), 2-3 (old) -> 2-0.
  EXPECT_TRUE(sub.graph.has_edge(1, 2));
  EXPECT_TRUE(sub.graph.has_edge(0, 2));
  EXPECT_FALSE(sub.graph.has_edge(0, 1));
}

TEST(InducedSubgraph, DuplicateNodesRejected) {
  const Graph g(3, {{0, 1}});
  const std::vector<NodeId> nodes{0, 0};
  EXPECT_THROW(induced_subgraph(g, nodes), std::invalid_argument);
}

TEST(InducedSubgraph, EmptySelection) {
  const Graph g(3, {{0, 1}});
  const std::vector<NodeId> nodes;
  const auto sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.n(), 0u);
}

// --- CSR representation invariants -----------------------------------------

// Reference adjacency built with ordered sets — deliberately independent of
// the CSR scatter/sort machinery inside Graph's constructor.
std::vector<std::vector<NodeId>> reference_adjacency(NodeId n, const std::vector<Edge>& edges) {
  std::vector<std::set<NodeId>> sets(n);
  for (const auto& [u, v] : edges) {
    sets[u].insert(v);
    sets[v].insert(u);
  }
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) out[v].assign(sets[v].begin(), sets[v].end());
  return out;
}

void expect_csr_invariants(const Graph& g, const std::vector<Edge>& edges) {
  const auto offsets = g.row_offsets();
  const auto adjacency = g.adjacency();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(g.n()) + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), adjacency.size());
  EXPECT_EQ(adjacency.size(), 2 * g.m());

  const auto reference = reference_adjacency(g.n(), edges);
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    // Sorted, deduplicated, and degree-consistent with the offset table.
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end());
    EXPECT_EQ(nb.size(), g.degree(v));
    EXPECT_EQ(nb.size(), offsets[v + 1] - offsets[v]);
    degree_sum += nb.size();
    // Iteration order is pinned to the reference order — the guarantee the
    // representation change must not move (protocol RNG draws and message
    // order depend on it).
    ASSERT_EQ(nb.size(), reference[v].size()) << "degree mismatch at node " << v;
    EXPECT_TRUE(std::equal(nb.begin(), nb.end(), reference[v].begin()))
        << "neighbor order diverged at node " << v;
    // neighbor_rank agrees with the row layout for every present neighbor
    // and reports absences.
    for (std::size_t i = 0; i < nb.size(); ++i) EXPECT_EQ(g.neighbor_rank(v, nb[i]), i);
    EXPECT_EQ(g.neighbor_rank(v, v), Graph::kNoRank);
  }
  EXPECT_EQ(degree_sum, 2 * g.m());
}

TEST(GraphCsr, InvariantsOnHandBuiltGraphs) {
  const std::vector<Edge> edges{{4, 2}, {2, 4}, {0, 4}, {3, 1}, {1, 3}, {0, 1}, {2, 0}};
  expect_csr_invariants(Graph(5, edges), edges);
}

TEST(GraphCsr, InvariantsOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    support::Rng rng(seed);
    const NodeId n = 64 + static_cast<NodeId>(rng.below(64));
    std::vector<Edge> edges;
    const std::size_t want = 4 * n;
    for (std::size_t i = 0; i < want; ++i) {
      const auto u = static_cast<NodeId>(rng.below(n));
      const auto v = static_cast<NodeId>(rng.below(n));
      if (u != v) edges.emplace_back(u, v);  // duplicates + both orientations on purpose
    }
    expect_csr_invariants(Graph(n, edges), edges);
  }
}

TEST(GraphCsr, InvariantsOnGeneratorOutputs) {
  support::Rng rng(99);
  const Graph g = gnp(200, 0.1, rng);
  expect_csr_invariants(g, g.edges());
  support::Rng rng2(7);
  const Graph r = random_regular(120, 6, rng2);
  expect_csr_invariants(r, r.edges());
}

// The constructor fills the CSR straight from lists that are strictly
// increasing in (min, max) or (max, min) order and sorts everything else;
// both paths must produce the same bytes.
TEST(GraphCsr, ScanOrderAndUnsortedListsBuildIdenticalCsr) {
  support::Rng rng(5);
  const Graph base = gnp(300, 0.1, rng);
  std::vector<Edge> min_major = base.edges();
  ASSERT_GT(min_major.size(), 100u);
  // gnp's own output order: (max, min) pairs, increasing.
  std::vector<Edge> max_major;
  for (const auto& [u, v] : min_major) max_major.emplace_back(v, u);
  std::sort(max_major.begin(), max_major.end());
  // The same edges shuffled, plus reversed pairs and exact duplicates.
  std::vector<Edge> shuffled = min_major;
  for (std::size_t i = 0; i < min_major.size(); i += 3) {
    shuffled.emplace_back(min_major[i].second, min_major[i].first);
  }
  for (std::size_t i = 1; i < min_major.size(); i += 5) shuffled.push_back(min_major[i]);
  rng.shuffle(std::span<Edge>(shuffled));
  // (max, min) order with one adjacent duplicate: not strictly increasing,
  // so it must still be deduplicated.
  std::vector<Edge> adjacent_duplicate = max_major;
  adjacent_duplicate.insert(adjacent_duplicate.begin() + 40, adjacent_duplicate[40]);

  const auto base_offsets = base.row_offsets();
  const auto base_adjacency = base.adjacency();
  for (const std::vector<Edge>* edges : {&max_major, &min_major, &shuffled, &adjacent_duplicate}) {
    const Graph g(base.n(), *edges);
    expect_csr_invariants(g, *edges);
    EXPECT_EQ(g.m(), base.m());
    EXPECT_TRUE(std::equal(g.row_offsets().begin(), g.row_offsets().end(), base_offsets.begin(),
                           base_offsets.end()));
    EXPECT_TRUE(std::equal(g.adjacency().begin(), g.adjacency().end(), base_adjacency.begin(),
                           base_adjacency.end()));
  }
}

TEST(GraphCsr, NeighborRankMatchesHasEdge) {
  const Graph g(6, {{0, 1}, {0, 3}, {0, 5}, {2, 4}});
  EXPECT_EQ(g.neighbor_rank(0, 1), 0u);
  EXPECT_EQ(g.neighbor_rank(0, 3), 1u);
  EXPECT_EQ(g.neighbor_rank(0, 5), 2u);
  EXPECT_EQ(g.neighbor_rank(0, 2), Graph::kNoRank);
  EXPECT_EQ(g.neighbor_rank(1, 0), 0u);
  EXPECT_EQ(g.neighbor_rank(4, 2), 0u);
}

}  // namespace
}  // namespace dhc::graph
