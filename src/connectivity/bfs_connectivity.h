#ifndef DDC_CONNECTIVITY_BFS_CONNECTIVITY_H_
#define DDC_CONNECTIVITY_BFS_CONNECTIVITY_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "connectivity/dynamic_connectivity.h"

namespace ddc {

/// CC maintenance by explicit component labels.
///
/// AddEdge merging two components relabels the smaller one (weighted quick
/// union); RemoveEdge runs two alternating BFS threads from the endpoints —
/// the same device IncDBSCAN uses on points [8], but here on the grid graph,
/// whose size is O(#cells) — and relabels the side that exhausts first.
/// No sublinear worst-case guarantee (a split can cost O(component)), which
/// is exactly the trade-off bench/ablation_connectivity quantifies against
/// HdtConnectivity.
class BfsConnectivity : public DynamicConnectivity {
 public:
  void EnsureVertices(int n) override;
  void AddEdge(int u, int v) override;
  void RemoveEdge(int u, int v) override;
  bool Connected(int u, int v) override;
  void ComponentIdsReadOnly(const std::vector<int>& vertices,
                            std::vector<uint64_t>* labels) override {
    labels->resize(vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      (*labels)[i] = label_[vertices[i]];
    }
  }
  int num_vertices() const override { return static_cast<int>(adj_.size()); }

 private:
  /// Relabels every vertex reachable from `start` with `label`.
  /// Returns the number of vertices relabeled.
  int Relabel(int start, uint64_t label);

  std::vector<std::unordered_set<int>> adj_;
  std::vector<uint64_t> label_;
  std::vector<int64_t> comp_size_;  // indexed by label (labels are dense)
  uint64_t next_label_ = 0;
};

}  // namespace ddc

#endif  // DDC_CONNECTIVITY_BFS_CONNECTIVITY_H_
