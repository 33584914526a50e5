#ifndef DDC_CONNECTIVITY_HDT_H_
#define DDC_CONNECTIVITY_HDT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "connectivity/euler_tour_tree.h"

namespace ddc {

/// Holm–de Lichtenberg–Thorup fully dynamic connectivity [14]: the CC
/// structure of the paper's framework (Section 4.2) behind Theorem 4. It
/// maintains the connected components of the grid graph under EdgeInsert /
/// EdgeRemove and answers CC-Id, with poly-logarithmic amortized time per
/// edge insertion/deletion and per query. Vertices are dense integer ids
/// (cell ids in the clusterer).
///
/// Every edge carries a level; F_i is a spanning forest of the edges with
/// level >= i, F_0 spans the graph. A deleted tree edge at level ℓ triggers
/// a replacement search from level ℓ downward; edges examined without
/// yielding a replacement are pushed one level up (the amortization), with
/// the invariant that a level-i tree has at most n/2^i vertices — the
/// smaller side of the cut is always the one whose edges get pushed.
class HdtConnectivity {
 public:
  HdtConnectivity();

  /// Grows the vertex universe so ids [0, n) are valid (new ids isolated).
  void EnsureVertices(int n);

  /// Adds edge {u, v}. The edge must not be present; u != v.
  void AddEdge(int u, int v);

  /// Removes edge {u, v}. The edge must be present.
  void RemoveEdge(int u, int v);

  /// True when u and v are in the same component.
  bool Connected(int u, int v);

  /// Fills (*labels)[i] with an identifier of vertices[i]'s component and
  /// resizes *labels to match. Two vertices share a component iff their ids
  /// are equal. Ids are stable between modifications but may be reassigned
  /// by any AddEdge/RemoveEdge. Labels are level-0 tour heads; the call
  /// climbs each splay node once (EulerTourForest::TourHeads). It changes no
  /// component, no tour and no splay shape, so a frozen snapshot can be
  /// built from it; but it uses per-node scratch, so it runs on the owning
  /// thread with the structure quiescent.
  void ComponentIdsReadOnly(const std::vector<int>& vertices,
                            std::vector<uint64_t>* labels);

  /// Number of vertices currently in the universe.
  int num_vertices() const { return n_; }

  /// Total number of edges currently stored (tree + non-tree).
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  /// Highest level currently in use (diagnostics; bounded by log2 n).
  int max_level() const { return static_cast<int>(forests_.size()) - 1; }

 private:
  struct EdgeInfo {
    int level = 0;
    bool tree = false;
    /// When tree: arcs[i] is the edge's arc pair in forest i, 0 <= i <= level.
    std::vector<EulerTourForest::ArcPair> arcs;
  };

  static uint64_t Key(int u, int v);

  EulerTourForest& Forest(int level);

  /// Adjacency sets of *non-tree* edges at `level`.
  FlatHashSet<int>& NontreeSet(int level, int v);

  void AddNontree(int level, int u, int v);
  void RemoveNontree(int level, int u, int v);

  /// Links (u, v) as a tree edge in forests [0, level] and flags it.
  void LinkTree(int u, int v, int level, EdgeInfo* info);

  /// Replacement search after deleting a tree edge of level `level` whose
  /// endpoints were u, v (already cut from all forests).
  void SearchReplacement(int u, int v, int level);

  int n_ = 0;
  std::vector<std::unique_ptr<EulerTourForest>> forests_;
  /// nontree_[level][v] — neighbors of v via non-tree edges of that level.
  std::vector<FlatHashMap<int, FlatHashSet<int>>> nontree_;
  FlatHashMap<uint64_t, EdgeInfo> edges_;
};

}  // namespace ddc

#endif  // DDC_CONNECTIVITY_HDT_H_
