#ifndef DDC_CONNECTIVITY_DYNAMIC_CONNECTIVITY_H_
#define DDC_CONNECTIVITY_DYNAMIC_CONNECTIVITY_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace ddc {

/// The CC structure of the paper's framework (Section 4.2): maintains the
/// connected components of the grid graph under EdgeInsert / EdgeRemove and
/// answers CC-Id. Vertices are dense integer ids (cell ids in the clusterer).
///
/// Implementations:
///   * HdtConnectivity — Holm–de Lichtenberg–Thorup [14], O~(1) amortized
///     per update, the structure Theorem 4 plugs in;
///   * BfsConnectivity — label maintenance with alternating BFS on edge
///     removal; simple and fast on the small, sparse grid graphs, used as
///     an ablation baseline (bench/ablation_connectivity).
class DynamicConnectivity {
 public:
  virtual ~DynamicConnectivity() = default;

  /// Grows the vertex universe so ids [0, n) are valid (new ids isolated).
  virtual void EnsureVertices(int n) = 0;

  /// Adds edge {u, v}. The edge must not be present; u != v.
  virtual void AddEdge(int u, int v) = 0;

  /// Removes edge {u, v}. The edge must be present.
  virtual void RemoveEdge(int u, int v) = 0;

  /// True when u and v are in the same component.
  virtual bool Connected(int u, int v) = 0;

  /// Fills (*labels)[i] with an identifier of vertices[i]'s component and
  /// resizes *labels to match. Two vertices share a component iff their ids
  /// are equal. Ids are stable between modifications but may be reassigned
  /// by any AddEdge/RemoveEdge. Changes no component, no tour and no splay
  /// shape, so a frozen snapshot can be built from it; but an
  /// implementation may use per-vertex scratch, so it runs on the owning
  /// thread with the structure quiescent.
  virtual void ComponentIdsReadOnly(const std::vector<int>& vertices,
                                    std::vector<uint64_t>* labels) = 0;

  /// Number of vertices currently in the universe.
  virtual int num_vertices() const = 0;
};

/// Which CC structure a fully-dynamic clusterer uses.
enum class ConnectivityKind { kHdt, kBfs };

std::unique_ptr<DynamicConnectivity> MakeConnectivity(ConnectivityKind kind);

}  // namespace ddc

#endif  // DDC_CONNECTIVITY_DYNAMIC_CONNECTIVITY_H_
