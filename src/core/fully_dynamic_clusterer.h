#ifndef DDC_CORE_FULLY_DYNAMIC_CLUSTERER_H_
#define DDC_CORE_FULLY_DYNAMIC_CLUSTERER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "connectivity/hdt.h"
#include "core/abcp.h"
#include "core/cluster_query.h"
#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/emptiness.h"
#include "core/params.h"
#include "core/relaxed_core_tracker.h"
#include "grid/grid.h"

namespace ddc {

/// The paper's fully-dynamic algorithm, Theorem 4: ρ-double-approximate
/// DBSCAN with O~(1) amortized insertions *and* deletions and O~(|Q|)
/// C-group-by queries, for any fixed dimension. With rho == 0 it maintains
/// exact DBSCAN (the "2d-Full-Exact" configuration of the experiments).
///
/// Composition (Sections 7.2–7.4): the relaxed core predicate is decided by
/// a capped range count; every pair of ε-close core cells runs an aBCP
/// instance whose witness pair *is* the grid-graph edge; edge
/// appearances/disappearances feed Holm–de Lichtenberg–Thorup fully-dynamic
/// connectivity. No BFS over points ever happens on deletion — the removal
/// of IncDBSCAN's Achilles heel.
class FullyDynamicClusterer : public Clusterer {
 public:
  explicit FullyDynamicClusterer(const DbscanParams& params);

  PointId Insert(const Point& p) override;
  void Delete(PointId id) override;
  std::shared_ptr<const ClusterSnapshot> Snapshot() override;
  std::shared_ptr<const ClusterSnapshot> CurrentSnapshot() const override {
    return snapshot_cache_.Peek();
  }
  std::shared_ptr<const ClusterSnapshot> FullSnapshot() override;

  std::vector<PointId> AlivePoints() const override;
  const DbscanParams& params() const override { return params_; }
  int64_t size() const override { return grid_.size(); }

  /// Introspection (tests, benches).
  bool is_core(PointId p) const { return tracker_.is_core(p); }
  int64_t num_graph_edges() const { return num_edges_; }
  int64_t num_abcp_instances() const {
    return static_cast<int64_t>(instances_.size() - free_instances_.size());
  }
  const Grid& grid() const { return grid_; }

  /// Observer of core-status transitions: invoked as `obs(p, now_core)`
  /// immediately after point `p` turns core (true) or loses core status
  /// (false), including the self-demotion of a point being deleted. The
  /// sharded engine uses this to maintain boundary core sets incrementally;
  /// unset (the default) costs nothing on the update path.
  using CoreObserver = std::function<void(PointId, bool)>;
  void set_core_observer(CoreObserver obs) { core_observer_ = std::move(obs); }

 private:
  /// GUM (Section 7.4).
  void OnCorePromoted(PointId p, CellId cell);
  void OnCoreDemoted(PointId p, CellId cell);

  CellCoreState& State(CellId c);

  void CreateInstance(CellId a, CellId b);
  void DestroyInstance(CellId a, CellId b, int32_t instance);

  void SetEdge(CellId a, CellId b, bool present);

  /// GridSnapshot::Build over this clusterer's state: through freeze_ for
  /// Snapshot(), through a fresh (all-dirty) state for FullSnapshot().
  /// Not const: the label pass uses HDT's per-node scratch.
  std::shared_ptr<const GridSnapshot> Freeze(uint64_t epoch,
                                             GridFreezeState* state);

  DbscanParams params_;
  Grid grid_;
  RelaxedCoreTracker tracker_;
  HdtConnectivity cc_;
  std::vector<CellCoreState> cells_;
  /// aBCP instance arena; slots are recycled through the free list and
  /// addressed by the PeerLink indices in CellCoreState.
  std::vector<AbcpInstance> instances_;
  std::vector<int32_t> free_instances_;
  /// Shared per-point slot registry for the cells' emptiness structures.
  std::vector<int32_t> core_slots_;
  CoreObserver core_observer_;
  int64_t num_edges_ = 0;
  SnapshotCache snapshot_cache_;
  GridFreezeState freeze_;
};

}  // namespace ddc

#endif  // DDC_CORE_FULLY_DYNAMIC_CLUSTERER_H_
