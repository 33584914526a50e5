#ifndef DDC_CORE_CLUSTER_SNAPSHOT_H_
#define DDC_CORE_CLUSTER_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/flat_hash.h"
#include "core/cluster_query.h"
#include "core/clusterer.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/simd_kernels.h"
#include "grid/grid.h"

namespace ddc {

/// An immutable, epoch-versioned view of one clustering: the read side of
/// the read/write split. A snapshot is deep-frozen at creation — it shares
/// no mutable state with the clusterer that produced it — so any number of
/// threads may Query it concurrently while updates keep flowing into the
/// live structures. Lookups are const and mutation-free by construction:
/// labels are resolved at build time, on the owning thread, by lookups that
/// neither compress paths nor splay (the Euler-tour batch lookup only
/// writes a per-node memo it clears again), and nothing on the read path
/// touches a live structure.
///
/// A snapshot answers queries about the dataset *as of its epoch*: ids
/// inserted later are unknown to it and are silently skipped, exactly as
/// dead ids are.
class ClusterSnapshot {
 public:
  virtual ~ClusterSnapshot() = default;

  /// The C-group-by query of Section 4.2 over the snapshot's dataset. Ids
  /// dead (or unborn) at the snapshot's epoch are ignored. Thread-safe.
  virtual CGroupByResult Query(const std::vector<PointId>& q) const = 0;

  /// True when `id` was alive at the snapshot's epoch.
  virtual bool alive(PointId id) const = 0;

  /// Number of alive points at the snapshot's epoch.
  virtual int64_t size() const = 0;

  /// The update-stream version this snapshot froze: the clusterer's update
  /// counter for the single-threaded clusterers, the stitch epoch for the
  /// sharded engine. Monotone per clusterer.
  uint64_t epoch() const { return epoch_; }

 protected:
  explicit ClusterSnapshot(uint64_t epoch) : epoch_(epoch) {}

 private:
  uint64_t epoch_;
};

class GridSnapshot;

/// What a clusterer keeps between GridSnapshot::Build calls so that a build
/// re-freezes only what changed: the cells its update paths marked dirty
/// since the previous build, the existing ids deleted, promoted or demoted
/// since then, and the snapshot that build produced (whose clean cells and
/// payload chunks the next build shares). A fresh state is all-dirty — the
/// first build freezes everything, through the same routine. Owning thread
/// only.
class GridFreezeState {
 public:
  /// A point was inserted into cell `c`. O(1). (Ids born since the previous
  /// build are frozen wholesale.)
  void MarkCell(CellId c) {
    if (all_dirty_) return;
    if (static_cast<size_t>(c) >= cell_dirty_.size()) {
      cell_dirty_.resize(static_cast<size_t>(c) + 1, 0);
    }
    if (cell_dirty_[c] != 0) return;
    cell_dirty_[c] = 1;
    dirty_cells_.push_back(c);
  }

  /// Point `p` was promoted or demoted in cell `c`. O(1).
  void MarkCore(PointId p, CellId c) { MarkPoint(p, c, &flipped_); }

  /// Point `p` was deleted from cell `c`. O(1).
  void MarkDeleted(PointId p, CellId c) { MarkPoint(p, c, &deleted_); }

 private:
  friend class GridSnapshot;

  /// Past one pending id mark per frozen id the next build is a full one,
  /// so an unqueried clusterer never accumulates more than that.
  void MarkPoint(PointId p, CellId c, std::vector<PointId>* list) {
    MarkCell(c);
    if (all_dirty_) return;
    list->push_back(p);
    if (static_cast<int64_t>(flipped_.size() + deleted_.size()) >
        frozen_points_ + 1024) {
      MarkAll();
    }
  }

  /// Makes the next build a full one.
  void MarkAll() {
    all_dirty_ = true;
    dirty_cells_.clear();
    cell_dirty_.clear();
    flipped_.clear();
    deleted_.clear();
  }

  bool all_dirty_ = true;
  std::vector<uint8_t> cell_dirty_;  // Per cell: already in dirty_cells_.
  std::vector<CellId> dirty_cells_;
  std::vector<PointId> flipped_;  // Promoted or demoted ids.
  std::vector<PointId> deleted_;
  int64_t frozen_points_ = 0;  // Ids covered by prev_.

  /// The last build, shared with whoever holds it (immutable).
  std::shared_ptr<const GridSnapshot> prev_;
  /// Per cell: the chunk slot holding its payload, and its first core
  /// member (the label source's handle on the cell; kInvalidPoint when it
  /// has none) as of prev_.
  std::vector<int32_t> cell_chunk_;
  std::vector<PointId> first_core_;
  /// Per chunk slot of prev_: cells still referencing it, and cells it was
  /// built with. A slot whose live count reaches zero is released.
  std::vector<int32_t> chunk_live_;
  std::vector<int32_t> chunk_cells_;
  std::vector<int32_t> free_slots_;
  int64_t chunked_cells_ = 0;  // Σ chunk_cells_ over occupied slots.
};

/// The frozen single-grid snapshot behind SemiDynamicClusterer,
/// FullyDynamicClusterer and IncrementalDbscan (and, per shard, behind the
/// sharded engine): per-point alive/core bits and packed coordinates, and
/// per-cell CC labels, packed core-member coordinates and ε-close core
/// neighbor lists. Membership follows the paper's query algorithm — a core
/// point takes its cell's CC label; a non-core point takes the label of
/// every ε-close core cell whose frozen emptiness query (brute-force scan
/// with the cell-box miss prefilter, radius (1+ρ)ε) certifies a proof —
/// which is conforming for the Theorem 3 sandwich and exact at rho == 0.
///
/// Layout. Each cell's payload — its box, its packed core-member
/// coordinates and its core-neighbor list — lives in an immutable CellChunk
/// shared by every snapshot whose cell table points into it; the cell table
/// and the per-point arrays are flat arrays copied from the previous epoch
/// and patched where the clusterer marked changes (see GridFreezeState).
class GridSnapshot final : public ClusterSnapshot {
 public:
  /// What Build reads from the live clusterer. Neither callback may change
  /// the clustering; cell_labels may write scratch of the structure it
  /// reads (Build runs on the owning thread with the structures quiescent).
  struct Sources {
    const Grid* grid = nullptr;
    /// Core bit of an alive point; asked only for the points of re-frozen
    /// cells.
    std::function<bool(PointId)> is_core;
    /// Fills (*labels)[i] with the CC label of core cell cells[i], where
    /// first_core[i] is one of its core members (IncDBSCAN labels clusters
    /// through core points, the grid clusterers through cells). Called once
    /// per build with every core cell.
    std::function<void(const std::vector<CellId>& cells,
                       const std::vector<PointId>& first_core,
                       std::vector<uint64_t>* labels)>
        cell_labels;
  };

  /// Freezes the query-relevant state: re-freezes the cells `state` marks
  /// dirty (all of them on a fresh state), shares every other cell's payload
  /// with the previous build, recomputes every core cell's label, and
  /// advances `state` to the result. Runs on the clusterer's owning thread
  /// while the structures are quiescent. A snapshot built on a fresh state
  /// is byte-for-byte the same as one built incrementally from the same
  /// clusterer state (tests/incremental_freeze_test.cc).
  static std::shared_ptr<const GridSnapshot> Build(const Sources& sources,
                                                   double eps_outer,
                                                   uint64_t epoch,
                                                   GridFreezeState* state);

  CGroupByResult Query(const std::vector<PointId>& q) const override;

  bool alive(PointId id) const override {
    return id >= 0 && id < static_cast<PointId>(cell_of_.size()) &&
           cell_of_[id] >= 0;
  }
  int64_t size() const override { return alive_; }

  bool is_core(PointId id) const {
    DDC_DCHECK(alive(id));
    return point_core_[id] != 0;
  }

  /// CC label of core point `id` (its cell's frozen label).
  uint64_t CoreLabelOf(PointId id) const {
    DDC_DCHECK(is_core(id));
    return cells_[cell_of_[id]].label;
  }

  /// Invokes `fn(label)` once per distinct cluster containing alive point
  /// `pid` — nothing for noise. The snapshot counterpart of the live-path
  /// ForEachMembershipLabel in cluster_query.h; thread-safe.
  template <typename Fn>
  void ForEachMembershipLabel(PointId pid, Fn&& fn) const {
    DDC_DCHECK(alive(pid));
    const int32_t c = cell_of_[pid];
    if (point_core_[pid] != 0) {
      fn(cells_[c].label);
      return;
    }
    Point p;
    const double* pc = point_coords_.data() +
                       static_cast<size_t>(pid) * static_cast<size_t>(dim_);
    for (int k = 0; k < dim_; ++k) p[k] = pc[k];
    MembershipLabelSet assigned;
    auto consider = [&](int32_t cell) {
      const CellRec& r = cells_[cell];
      if (r.num_members == 0) return;  // Not a core cell.
      if (BoxMiss(r, p)) return;
      // Batched membership test over the frozen packed core members.
      if (!AnyWithinPacked(p, r.members, r.num_members, dim_,
                           eps_outer_sq_)) {
        return;
      }
      if (assigned.Insert(r.label)) fn(r.label);
    };
    consider(c);
    const CellRec& own = cells_[c];
    for (int32_t i = 0; i < own.num_nbrs; ++i) consider(own.nbrs[i]);
  }

 private:
  /// The persistence layer (persist/snapshot_io.cc) flattens the chunks into
  /// the on-disk sections and rebuilds a snapshot from them.
  friend class SnapshotIO;

  /// Immutable payload of the cells re-frozen by one build (or loaded from
  /// one file), in re-freeze order. Never modified once published, so the
  /// cell table may point into it from any number of snapshots.
  struct CellChunk {
    std::vector<Box> boxes;
    std::vector<double> members;  // Core members, packed, grouped by cell.
    std::vector<int32_t> nbrs;    // ε-close core cells, grouped by cell.
  };

  /// One cell of the table: its frozen label and where its payload sits.
  /// Plain data, copied wholesale from epoch to epoch.
  struct CellRec {
    uint64_t label = 0;  // Valid when num_members > 0; else 0.
    const Box* box = nullptr;
    const double* members = nullptr;
    const int32_t* nbrs = nullptr;
    int32_t num_members = 0;
    int32_t num_nbrs = 0;
  };

  explicit GridSnapshot(uint64_t epoch) : ClusterSnapshot(epoch) {}

  /// The emptiness miss prefilter of the live structures, on the frozen
  /// cell box: O(d) certainty that no member of the cell is within (1+ρ)ε.
  /// Same formula and slack rule as BoxMiss in core/emptiness.cc.
  bool BoxMiss(const CellRec& r, const Point& p) const {
    return r.box->MinSquaredDistance(p, dim_) >
           eps_outer_sq_ * (1 + kBoxPrefilterSlack);
  }

  int dim_ = 0;
  double eps_outer_sq_ = 0;
  int64_t alive_ = 0;

  // Per point, indexed by PointId in [0, total_inserted at freeze time).
  std::vector<int32_t> cell_of_;  // -1 = dead.
  std::vector<uint8_t> point_core_;
  std::vector<double> point_coords_;  // Packed, dim per id; 0 when dead.

  // Per cell (same CellId indexing as the source grid).
  std::vector<CellRec> cells_;
  /// Owners of the payloads cells_ points into, by chunk slot (null slots
  /// are free).
  std::vector<std::shared_ptr<const CellChunk>> chunks_;
};

/// Publication slot for a shared_ptr: Store swaps the pointer in, Load
/// hands a reference-counted copy out, from any thread. The pointer copy
/// sits behind a plain mutex held for a handful of instructions and never
/// across user code — std::atomic<shared_ptr> would express the same
/// semantics (it is lock-based inside libstdc++ too), but its lock-bit
/// protocol is invisible to ThreadSanitizer (GCC PR 104366) and the CI
/// TSan job runs with halt_on_error.
template <typename T>
class SharedPtrSlot {
 public:
  std::shared_ptr<T> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  void Store(std::shared_ptr<T> p) {
    // Drop the previous value outside the lock (its destructor may do real
    // work).
    std::shared_ptr<T> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old.swap(ptr_);
      ptr_ = std::move(p);
    }
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
};

/// The publication slot of a clusterer's snapshot: a swapped shared_ptr
/// plus a relaxed update counter. The update path pays one relaxed
/// fetch_add (invalidation is implicit — a cached snapshot whose epoch
/// trails the version is stale); the snapshot slot itself is only written
/// by the owning thread's GetOrBuild and read by anyone.
class SnapshotCache {
 public:
  /// Called once per applied update (any thread).
  void BumpVersion() { version_.fetch_add(1, std::memory_order_relaxed); }

  uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// The cached snapshot when it is current, else `build(version)` —
  /// published into the slot before returning. Owning thread only, with the
  /// structures quiescent.
  template <typename BuildFn>
  std::shared_ptr<const ClusterSnapshot> GetOrBuild(BuildFn&& build) {
    const uint64_t v = version();
    std::shared_ptr<const ClusterSnapshot> cached = cached_.Load();
    if (cached != nullptr && cached->epoch() == v) return cached;
    std::shared_ptr<const ClusterSnapshot> fresh = build(v);
    DDC_DCHECK(fresh != nullptr);
    cached_.Store(fresh);
    return fresh;
  }

  /// Latest published snapshot, possibly stale or null; any thread.
  std::shared_ptr<const ClusterSnapshot> Peek() const {
    return cached_.Load();
  }

 private:
  std::atomic<uint64_t> version_{0};
  SharedPtrSlot<const ClusterSnapshot> cached_;
};

}  // namespace ddc

#endif  // DDC_CORE_CLUSTER_SNAPSHOT_H_
