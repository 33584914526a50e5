#ifndef DDC_CORE_EMPTINESS_H_
#define DDC_CORE_EMPTINESS_H_

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "geom/box.h"
#include "geom/point.h"
#include "grid/grid.h"

namespace ddc {

/// Per-cell structure over the *core points* of one core cell, answering the
/// ρ-approximate ε-emptiness query of Section 4.2:
///
///   empty(q, c) must return a proof point when some core point of c lies
///   within ε of q, must return "none" when no core point lies within
///   (1+ρ)ε, and may answer either way in between. A returned proof point is
///   always within (1+ρ)ε of q.
///
/// The paper plugs in Arya et al.'s approximate nearest neighbor structure
/// (Chan's structure for exact 2D). Any member within (1+ρ)ε is a legal
/// proof, so a flat scan that stops at the first one, behind a cell-box
/// prefilter, is conforming; on the paper's workloads it also measured
/// faster than bucketing the members on a ρε-sized sub-grid.
///
/// Members live in a flat vector; their coordinates are mirrored in a packed
/// array (`dim` doubles per member, same order), so Query — the aBCP witness
/// probe, the hottest emptiness call — streams memory sequentially.
class EmptinessStructure {
 public:
  /// `grid` provides point coordinates; `cell_box` bounds the cell whose
  /// core points the structure holds, so a query answers in O(d) whenever
  /// even the box's nearest point is beyond (1+ρ)ε — the all-miss witness
  /// probes that would otherwise scan every member. `slot_registry` is a
  /// per-point slot array shared by every structure of one clusterer (a
  /// point is a core member of at most one cell at a time), so membership
  /// bookkeeping is two array writes. `grid` and `slot_registry` must
  /// outlive the structure; stale registry entries for non-members are never
  /// trusted.
  EmptinessStructure(const Grid* grid, const DbscanParams& params,
                     const Box& cell_box, std::vector<int32_t>* slot_registry);

  /// Adds a core point (must not be present).
  void Insert(PointId p);

  /// Removes a core point (must be present).
  void Remove(PointId p);

  /// Number of core points in the structure.
  int size() const { return static_cast<int>(members_.size()); }

  /// True when `p` is currently a member (the aBCP log de-listing test).
  bool Contains(PointId p) const;

  /// The emptiness query: a core point within (1+ρ)ε of `q`, or
  /// kInvalidPoint. Guaranteed non-invalid when some member is within ε.
  PointId Query(const Point& q) const;

  /// The current members (used to seed aBCP witness pairs).
  const std::vector<PointId>& members() const { return members_; }

 private:
  const Grid* grid_;
  int dim_;
  double outer_sq_;
  Box box_;
  std::vector<int32_t>* slots_;
  std::vector<PointId> members_;
  std::vector<double> coords_;
};

}  // namespace ddc

#endif  // DDC_CORE_EMPTINESS_H_
