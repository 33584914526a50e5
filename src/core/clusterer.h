#ifndef DDC_CORE_CLUSTERER_H_
#define DDC_CORE_CLUSTERER_H_

#include <memory>
#include <vector>

#include "core/params.h"
#include "geom/point.h"

namespace ddc {

class ClusterSnapshot;

/// Result of a cluster-group-by (C-group-by) query (Section 3 of the paper):
/// the query points broken into the clusters of the current dataset. Because
/// DBSCAN clusters need not be disjoint, a non-core query point may appear in
/// several groups; a query point in no cluster is reported as noise.
struct CGroupByResult {
  /// One entry per cluster that intersects Q: the ids of the query points in
  /// that cluster. Groups and their members are in no particular order.
  std::vector<std::vector<PointId>> groups;

  /// Query points that belong to no cluster.
  std::vector<PointId> noise;

  /// Canonical form: members sorted within groups, groups sorted
  /// lexicographically, noise sorted. Useful for comparisons in tests.
  void Canonicalize();

  /// True when two canonicalized results are identical.
  friend bool operator==(const CGroupByResult& a, const CGroupByResult& b) {
    return a.groups == b.groups && a.noise == b.noise;
  }
};

/// Common interface of the dynamic clustering algorithms in this library:
/// the paper's semi-dynamic ρ-approximate algorithm (Theorem 1), the
/// fully-dynamic ρ-double-approximate algorithm (Theorem 4), and the
/// IncDBSCAN baseline [8]. Exact DBSCAN is the special case rho == 0.
class Clusterer {
 public:
  virtual ~Clusterer() = default;

  /// Adds a point; returns its id (stable until deletion).
  virtual PointId Insert(const Point& p) = 0;

  /// Removes a previously inserted point. Aborts on clusterers that are
  /// semi-dynamic (insertion-only).
  virtual void Delete(PointId id) = 0;

  /// An immutable, epoch-versioned view of the clustering after every
  /// update submitted so far (asynchronous engines flush first). The
  /// returned snapshot is deep-frozen: it stays valid — and answers queries
  /// about its epoch — no matter how many updates are applied afterwards,
  /// and may be read from any number of threads concurrently. Consecutive
  /// calls with no updates in between return the same (cached) snapshot.
  /// Must be called from the updating thread, like Insert/Delete.
  virtual std::shared_ptr<const ClusterSnapshot> Snapshot() = 0;

  /// The latest *published* snapshot, without flushing: an atomic load that
  /// is safe from any thread, concurrently with updates. May trail the
  /// update stream (it is whatever the last Snapshot()/publication froze)
  /// and is null before the first publication.
  virtual std::shared_ptr<const ClusterSnapshot> CurrentSnapshot() const = 0;

  /// The state Snapshot() freezes, frozen from scratch: nothing shared with
  /// earlier epochs, the incremental freeze state left as it is. Serializes
  /// byte-for-byte like Snapshot() and answers every query the same; it is
  /// the reference the incremental freeze is tested against. The default
  /// (clusterers that freeze from scratch anyway) is Snapshot(). Owning
  /// thread only.
  virtual std::shared_ptr<const ClusterSnapshot> FullSnapshot() {
    return Snapshot();
  }

  /// Answers a C-group-by query over the alive points in `q`: a thin
  /// wrapper over Snapshot()->Query(), so the owning thread and concurrent
  /// snapshot readers run the same code over the same frozen state.
  CGroupByResult Query(const std::vector<PointId>& q);

  /// Blocks until every previously submitted update is fully applied.
  /// Synchronous clusterers are always caught up — the default is a no-op.
  /// Batched/asynchronous engines (the sharded clusterer) override it; the
  /// workload runner calls it before closing a run's timing window so
  /// throughput never counts enqueued-but-unapplied work as done.
  virtual void Flush() {}

  /// Convenience: C-group-by with Q = all alive points, i.e., the full
  /// clustering C(P).
  CGroupByResult QueryAll();

  /// All alive point ids.
  virtual std::vector<PointId> AlivePoints() const = 0;

  virtual const DbscanParams& params() const = 0;

  /// Number of alive points.
  virtual int64_t size() const = 0;
};

}  // namespace ddc

#endif  // DDC_CORE_CLUSTERER_H_
