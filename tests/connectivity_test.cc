#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "connectivity/hdt.h"
#include "unionfind/union_find.h"

namespace ddc {
namespace {

static_assert(sizeof(void*) != 8 || sizeof(EttNode) == 56,
              "the TourHeads memo must stay in EttNode's tail padding");

/// Component ids of vertices [0, n) from one batch call.
std::vector<uint64_t> AllIds(HdtConnectivity& c) {
  std::vector<int> vertices(c.num_vertices());
  std::iota(vertices.begin(), vertices.end(), 0);
  std::vector<uint64_t> ids;
  c.ComponentIdsReadOnly(vertices, &ids);
  return ids;
}

TEST(ConnectivityTest, EmptyGraph) {
  HdtConnectivity c;
  c.EnsureVertices(3);
  EXPECT_TRUE(c.Connected(1, 1));
  EXPECT_FALSE(c.Connected(0, 2));
  const std::vector<uint64_t> ids = AllIds(c);
  EXPECT_NE(ids[0], ids[2]);
}

TEST(ConnectivityTest, TriangleSurvivesOneRemoval) {
  HdtConnectivity c;
  c.EnsureVertices(3);
  c.AddEdge(0, 1);
  c.AddEdge(1, 2);
  c.AddEdge(2, 0);
  EXPECT_TRUE(c.Connected(0, 2));
  // Removing any one edge of a cycle keeps the component intact.
  c.RemoveEdge(0, 1);
  EXPECT_TRUE(c.Connected(0, 1));
  const std::vector<uint64_t> ids = AllIds(c);
  EXPECT_EQ(ids[0], ids[1]);
  c.RemoveEdge(1, 2);
  EXPECT_FALSE(c.Connected(1, 0));
  EXPECT_TRUE(c.Connected(0, 2));
}

TEST(ConnectivityTest, BridgeSplit) {
  // Two triangles joined by a bridge; deleting the bridge splits exactly
  // along it.
  HdtConnectivity c;
  c.EnsureVertices(6);
  c.AddEdge(0, 1);
  c.AddEdge(1, 2);
  c.AddEdge(2, 0);
  c.AddEdge(3, 4);
  c.AddEdge(4, 5);
  c.AddEdge(5, 3);
  c.AddEdge(2, 3);  // Bridge.
  EXPECT_TRUE(c.Connected(0, 5));
  c.RemoveEdge(2, 3);
  EXPECT_FALSE(c.Connected(0, 5));
  EXPECT_TRUE(c.Connected(0, 2));
  EXPECT_TRUE(c.Connected(3, 5));
  const std::vector<uint64_t> ids = AllIds(c);
  EXPECT_NE(ids[0], ids[3]);
}

TEST(ConnectivityTest, ComponentIdsPartitionCorrectly) {
  HdtConnectivity c;
  c.EnsureVertices(8);
  c.AddEdge(0, 1);
  c.AddEdge(2, 3);
  c.AddEdge(4, 5);
  c.AddEdge(0, 2);
  // Components: {0,1,2,3}, {4,5}, {6}, {7}.
  std::map<uint64_t, std::set<int>> by_id;
  const std::vector<uint64_t> ids = AllIds(c);
  for (int v = 0; v < 8; ++v) by_id[ids[v]].insert(v);
  ASSERT_EQ(by_id.size(), 4u);
  std::set<std::set<int>> groups;
  for (auto& [id, s] : by_id) groups.insert(s);
  EXPECT_TRUE(groups.count({0, 1, 2, 3}));
  EXPECT_TRUE(groups.count({4, 5}));
  EXPECT_TRUE(groups.count({6}));
  EXPECT_TRUE(groups.count({7}));
}

TEST(ConnectivityTest, GrowUniverseOnTheFly) {
  HdtConnectivity c;
  c.EnsureVertices(2);
  c.AddEdge(0, 1);
  c.EnsureVertices(5);
  c.AddEdge(3, 4);
  EXPECT_TRUE(c.Connected(3, 4));
  EXPECT_FALSE(c.Connected(0, 4));
  EXPECT_EQ(c.num_vertices(), 5);
}

// Randomized insert/delete fuzz against union-find recomputation. This is
// the main correctness driver for the HDT level hierarchy (replacement
// search, edge promotion).
TEST(ConnectivityTest, FuzzAgainstRecomputation) {
  const int n = 50;
  Rng rng(555);
  HdtConnectivity c;
  c.EnsureVertices(n);
  std::set<std::pair<int, int>> edges;

  auto oracle = [&]() {
    UnionFind uf(n);
    for (const auto& [a, b] : edges) uf.Union(a, b);
    return uf;
  };

  for (int step = 0; step < 4000; ++step) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    const auto e = std::minmax(u, v);
    const std::pair<int, int> key{e.first, e.second};
    // Dense phases early, sparse phases late, to exercise both split-heavy
    // and merge-heavy regimes.
    const double p_insert = step < 2000 ? 0.65 : 0.35;
    if (edges.count(key) == 0 && rng.NextBernoulli(p_insert)) {
      c.AddEdge(u, v);
      edges.insert(key);
    } else if (edges.count(key) == 1) {
      c.RemoveEdge(u, v);
      edges.erase(key);
    }

    if (step % 40 == 0) {
      UnionFind uf = oracle();
      const std::vector<uint64_t> ids = AllIds(c);
      for (int probe = 0; probe < 40; ++probe) {
        const int a = static_cast<int>(rng.NextBelow(n));
        const int b = static_cast<int>(rng.NextBelow(n));
        ASSERT_EQ(c.Connected(a, b), uf.Connected(a, b))
            << "step " << step << " pair (" << a << "," << b << ")";
        ASSERT_EQ(ids[a] == ids[b], uf.Connected(a, b));
      }
    }
  }
}

// The batch lookup under random link/cut: every call's ids partition the
// queried vertices exactly as a union-find oracle does, whatever the order
// and multiplicity of the vertices asked for; back-to-back calls agree with
// each other (a stale per-node memo would mislabel the second); and calls
// interleaved with further updates track them.
TEST(ConnectivityTest, BatchIdsMatchOracleAcrossCallsAndUpdates) {
  const int n = 300;
  Rng rng(4242);
  HdtConnectivity c;
  c.EnsureVertices(n);
  std::set<std::pair<int, int>> edges;

  // Ids of `vertices` must map one-to-one onto the oracle's roots.
  auto check = [&](const std::vector<int>& vertices,
                   const std::vector<uint64_t>& ids, UnionFind& uf) {
    ASSERT_EQ(ids.size(), vertices.size());
    std::map<uint64_t, int> root_of_id;
    std::map<int, uint64_t> id_of_root;
    for (size_t i = 0; i < vertices.size(); ++i) {
      const int root = uf.Find(vertices[i]);
      ASSERT_EQ(root_of_id.emplace(ids[i], root).first->second, root)
          << "vertex " << vertices[i];
      ASSERT_EQ(id_of_root.emplace(root, ids[i]).first->second, ids[i])
          << "vertex " << vertices[i];
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u != v) {
      const auto e = std::minmax(u, v);
      const std::pair<int, int> key{e.first, e.second};
      const double p_insert = step < 1500 ? 0.6 : 0.4;
      if (edges.count(key) == 0 && rng.NextBernoulli(p_insert)) {
        c.AddEdge(u, v);
        edges.insert(key);
      } else if (edges.count(key) == 1) {
        c.RemoveEdge(u, v);
        edges.erase(key);
      }
    }
    if (step % 25 != 0) continue;

    UnionFind uf(n);
    for (const auto& [a, b] : edges) uf.Union(a, b);
    // A random subset with repeats, in random order.
    std::vector<int> some;
    const int k = 1 + static_cast<int>(rng.NextBelow(2 * n));
    for (int i = 0; i < k; ++i) {
      some.push_back(static_cast<int>(rng.NextBelow(n)));
    }
    std::vector<uint64_t> some_ids;
    c.ComponentIdsReadOnly(some, &some_ids);
    check(some, some_ids, uf);
    // Back to back: the full universe, then the subset again; no update in
    // between, so the ids must not move.
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    const std::vector<uint64_t> all_ids = AllIds(c);
    check(all, all_ids, uf);
    std::vector<uint64_t> again;
    c.ComponentIdsReadOnly(some, &again);
    ASSERT_EQ(again, some_ids) << "step " << step;
    for (size_t i = 0; i < some.size(); ++i) {
      ASSERT_EQ(some_ids[i], all_ids[some[i]]);
    }
  }
}

TEST(HdtTest, LevelsStayLogarithmic) {
  const int n = 128;
  Rng rng(9);
  HdtConnectivity c;
  c.EnsureVertices(n);
  std::set<std::pair<int, int>> edges;
  for (int step = 0; step < 20000; ++step) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    const auto e = std::minmax(u, v);
    const std::pair<int, int> key{e.first, e.second};
    if (edges.count(key) == 0 && rng.NextBernoulli(0.5)) {
      c.AddEdge(u, v);
      edges.insert(key);
    } else if (edges.count(key) == 1) {
      c.RemoveEdge(u, v);
      edges.erase(key);
    }
  }
  // The HDT invariant bounds levels by log2(n) = 7.
  EXPECT_LE(c.max_level(), 8);
  EXPECT_EQ(c.num_edges(), static_cast<int64_t>(edges.size()));
}

}  // namespace
}  // namespace ddc
