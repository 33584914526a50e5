#ifndef DDC_CORE_INCREMENTAL_DBSCAN_H_
#define DDC_CORE_INCREMENTAL_DBSCAN_H_

#include <vector>

#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/params.h"
#include "grid/grid.h"
#include "unionfind/union_find.h"

namespace ddc {

/// IncDBSCAN — the incremental exact-DBSCAN maintenance algorithm of Ester,
/// Kriegel, Sander, Wimmer and Xu (VLDB 1998) [8], the state of the art the
/// paper compares against (Section 3). Reimplemented faithfully:
///
///   * every insertion/deletion starts with an ε-range query for the seed
///     points, and updates exact neighborhood counts;
///   * cluster merging never relabels — cluster ids go through a merging
///     history (a union-find over ids);
///   * a deletion that may split a cluster runs as many alternating BFS
///     threads over the core graph as there are seed points, each expansion
///     being another ε-range query; threads that meet coalesce, and when
///     only one thread is left the split check stops early. Completed
///     threads relabel their side with a fresh id.
///
/// The range queries use the shared grid: a query visits only the O(1)
/// ε-close cells of its own, at least as fast as the R*-tree the original
/// used, so the baseline is not handicapped.
/// Deletions in dense regions are intentionally expensive: that is the
/// drawback (Section 3, "Drawbacks of IncDBSCAN") the paper's algorithms
/// remove, and what the fully-dynamic benchmarks quantify.
class IncrementalDbscan : public Clusterer {
 public:
  /// rho must be 0: IncDBSCAN maintains exact DBSCAN clusters.
  explicit IncrementalDbscan(const DbscanParams& params);

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
  bool is_core(PointId p) const {
    return neighbor_count_[p] >= params_.min_pts;
  }
  int64_t range_queries_issued() const { return range_queries_; }
  const Grid& grid() const { return grid_; }

 private:
  /// GridSnapshot::Build over this clusterer's state: through freeze_ for
  /// Snapshot(), through a fresh (all-dirty) state for FullSnapshot().
  std::shared_ptr<const GridSnapshot> Freeze(uint64_t epoch,
                                             GridFreezeState* state) const;

  /// All alive points within eps of `center` (one "range query", the
  /// algorithm's cost unit).
  std::vector<PointId> RangeQuery(const Point& center);

  /// Current cluster id of a core point, following the merging history.
  int ClusterOf(PointId p);

  /// Gives new core point `p` a cluster id, merging with its core neighbors.
  void LabelNewCore(PointId p, const std::vector<PointId>& neighbors);

  /// Split check after a deletion: alternating BFS threads from `seeds`
  /// (all in the same cluster); completed threads get fresh ids.
  void CheckSplit(const std::vector<PointId>& seeds);

  DbscanParams params_;
  Grid grid_;
  std::vector<int32_t> neighbor_count_;  // |B(p, eps)| for alive points.
  std::vector<int32_t> cluster_id_;      // Valid only while core.
  UnionFind merge_history_;              // Over cluster ids.
  int64_t range_queries_ = 0;
  SnapshotCache snapshot_cache_;
  GridFreezeState freeze_;
};

}  // namespace ddc

#endif  // DDC_CORE_INCREMENTAL_DBSCAN_H_
