#ifndef DDC_CORE_RELAXED_CORE_TRACKER_H_
#define DDC_CORE_RELAXED_CORE_TRACKER_H_

#include <utility>
#include <vector>

#include "common/check.h"
#include "core/params.h"
#include "geom/point.h"
#include "grid/grid.h"
#include "telemetry/metrics.h"

namespace ddc {

/// The fully-dynamic core-status structure (Section 7.3) for the relaxed,
/// ρ-double-approximate core predicate of Section 6.2: a point is declared
/// core iff an approximate range count returns k >= MinPts, where k lies in
/// [|B(p,ε)|, |B(p,(1+ρ)ε)|]. Points whose true counts fall in the
/// don't-care band may be declared either way; the declared statuses define
/// one consistent legal clustering. The count is exact, |B(p,ε)|, which
/// trivially lies in that range; it stands in for the Mount–Park structure
/// [16] the paper cites, since a count over the O(1) ε-close cells that
/// stops at MinPts is already cheap.
///
/// Status can change only for points in sparse cells: a dense cell pins all
/// of its residents to "definitely core" (any two same-cell points are
/// within ε). Each update therefore re-examines the O(1) ε-close sparse
/// cells (each holding < MinPts points) plus the own cell when it is not
/// dense — O~(1) work per update with an O~(1) counter.
class RelaxedCoreTracker {
 public:
  /// `grid` must outlive the tracker.
  RelaxedCoreTracker(const Grid* grid, const DbscanParams& params);

  /// Processes the insertion of `pid` into `cell` (grid already updated).
  /// Emits `on_promote(q, cell_of_q)` for every point that turned core,
  /// possibly including `pid`. Templated on the callback so the per-update
  /// path never materializes a std::function.
  template <typename Fn>
  void OnInsert(PointId pid, CellId cell, Fn&& on_promote);

  /// Processes the deletion of `deleted` out of `cell` (grid already
  /// updated; the deleted point's own demotion, if it was core, must be
  /// handled by the caller beforehand). Emits `on_demote(q, cell_of_q)`
  /// for every remaining point that lost core status.
  template <typename Fn>
  void OnDelete(PointId deleted, CellId cell, Fn&& on_demote);

  bool is_core(PointId pid) const { return is_core_[pid]; }

  /// Clears the flag of a point being deleted (caller handles GUM fallout).
  void ClearCore(PointId pid) { is_core_[pid] = false; }

  /// The range count behind the predicate for alive point `pid`: |B(p,ε)|,
  /// truncated at `cap` (only the comparison with MinPts matters, so the
  /// scan stops there).
  int Count(PointId pid, int cap) const;

 private:
  bool QueryCore(PointId pid) const {
    return Count(pid, params_.min_pts) >= params_.min_pts;
  }

  const Grid* grid_;
  DbscanParams params_;
  double eps_sq_;
  /// Re-query filter radius², (1+ρ)ε squared: an update farther than this
  /// from a point cannot change any conforming count for it, so its declared
  /// status stays valid without a counter query.
  double filter_sq_;
  std::vector<bool> is_core_;
  /// Scratch for the deferred promotion/demotion lists (OnInsert/OnDelete
  /// are not reentrant); reused to keep the per-update path allocation-free.
  std::vector<std::pair<PointId, CellId>> scratch_;
};

template <typename Fn>
void RelaxedCoreTracker::OnInsert(PointId pid, CellId cell, Fn&& on_promote) {
  DDC_CHECK(pid == static_cast<PointId>(is_core_.size()));
  is_core_.push_back(false);

  std::vector<std::pair<PointId, CellId>>& promoted = scratch_;
  promoted.clear();

  // Cascade accounting, flushed once per update: every candidate either
  // re-queried the counter (requeries) or was skipped by the (1+ρ)ε
  // distance filter (prune_skips). Dense-cell and core-flag skips are free
  // and not counted — the interesting ratio is filter vs. counter.
  int64_t requeries = 0;
  int64_t prune_skips = 0;

  // The new point itself: dense own cell => core outright.
  const Cell& own = grid_->cell(cell);
  if (own.size() >= params_.min_pts) {
    is_core_[pid] = true;
    promoted.emplace_back(pid, cell);
  } else {
    ++requeries;
    if (QueryCore(pid)) {
      is_core_[pid] = true;
      promoted.emplace_back(pid, cell);
    }
  }

  // Insertions can only promote. Candidates live in sparse ε-close cells —
  // and in the own cell, which may have just crossed the density threshold
  // (its residents then become "definitely core" without a count query).
  // Only points within (1+ρ)ε of the arrival can see their count change, so
  // everyone farther keeps their status query-free (same-cell points are
  // within ε by the grid geometry — no test needed).
  const Point& p = grid_->point(pid);
  const int dim = params_.dim;
  auto scan = [&](CellId c, bool same_cell) {
    const Cell& cc = grid_->cell(c);
    const bool now_dense = cc.size() >= params_.min_pts;
    auto recheck = [&](PointId q) {
      if (q == pid || is_core_[q]) return;
      if (!now_dense) ++requeries;
      if (now_dense || QueryCore(q)) {
        is_core_[q] = true;
        promoted.emplace_back(q, c);
      }
    };
    if (same_cell) {
      // Same-cell points are within ε by the grid geometry: no filter.
      for (const PointId q : cc.points) recheck(q);
      return;
    }
    // Neighbor cells are always sparse here (< MinPts points), and most of
    // their residents are skipped by the O(1) core-flag test — so the cheap
    // checks run first and the (1+ρ)ε filter only on survivors. A batched
    // filter-first scan would invert that selectivity for no vector win at
    // these sizes (see kSimdSmallN in geom/simd_kernels.h).
    const double* coords = cc.coords.data();
    const size_t n = cc.points.size();
    for (size_t i = 0; i < n; ++i) {
      const PointId q = cc.points[i];
      if (q == pid || is_core_[q]) continue;
      if (WithinSquaredPacked(p, coords + i * dim, dim, filter_sq_)) {
        recheck(q);
      } else {
        ++prune_skips;
      }
    }
  };

  if (own.size() <= params_.min_pts) scan(cell, /*same_cell=*/true);
  for (const CellId nb : own.neighbors) {
    const int nb_size = grid_->cell_size(nb);
    if (nb_size > 0 && nb_size < params_.min_pts) {
      scan(nb, /*same_cell=*/false);
    }
  }
  DDC_COUNTER_ADD("core.requeries", requeries);
  DDC_COUNTER_ADD("core.prune_skips", prune_skips);

  for (const auto& [q, c] : promoted) on_promote(q, c);
}

template <typename Fn>
void RelaxedCoreTracker::OnDelete(PointId deleted, CellId cell,
                                  Fn&& on_demote) {
  std::vector<std::pair<PointId, CellId>>& demoted = scratch_;
  demoted.clear();

  // Cascade accounting, mirroring OnInsert.
  int64_t requeries = 0;
  int64_t prune_skips = 0;

  // Deletions can only demote, and only points in cells that are sparse now
  // (a still-dense cell keeps its residents definitely core) whose ε-ball
  // could actually have lost the departed point — the distance filter again.
  const Point& p = grid_->point(deleted);  // Valid after deletion.
  const int dim = params_.dim;
  auto scan = [&](CellId c, bool same_cell) {
    const Cell& cc = grid_->cell(c);
    auto recheck = [&](PointId q) {
      if (!is_core_[q]) return;
      ++requeries;
      if (!QueryCore(q)) {
        is_core_[q] = false;
        demoted.emplace_back(q, c);
      }
    };
    if (same_cell) {
      for (const PointId q : cc.points) recheck(q);
      return;
    }
    // Sparse neighbor cells, core-flag skip first — same rationale as
    // OnInsert above.
    const double* coords = cc.coords.data();
    const size_t n = cc.points.size();
    for (size_t i = 0; i < n; ++i) {
      const PointId q = cc.points[i];
      if (!is_core_[q]) continue;
      if (WithinSquaredPacked(p, coords + i * dim, dim, filter_sq_)) {
        recheck(q);
      } else {
        ++prune_skips;
      }
    }
  };

  if (grid_->cell_size(cell) < params_.min_pts) {
    scan(cell, /*same_cell=*/true);
  }
  for (const CellId nb : grid_->cell(cell).neighbors) {
    const int nb_size = grid_->cell_size(nb);
    if (nb_size > 0 && nb_size < params_.min_pts) {
      scan(nb, /*same_cell=*/false);
    }
  }
  DDC_COUNTER_ADD("core.requeries", requeries);
  DDC_COUNTER_ADD("core.prune_skips", prune_skips);

  for (const auto& [q, c] : demoted) on_demote(q, c);
}

}  // namespace ddc

#endif  // DDC_CORE_RELAXED_CORE_TRACKER_H_
