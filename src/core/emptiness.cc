#include "core/emptiness.h"

#include "common/check.h"
#include "geom/simd_kernels.h"

namespace ddc {

EmptinessStructure::EmptinessStructure(const Grid* grid,
                                       const DbscanParams& params,
                                       const Box& cell_box,
                                       std::vector<int32_t>* slot_registry)
    : grid_(grid),
      dim_(params.dim),
      outer_sq_(params.eps_outer() * params.eps_outer()),
      box_(cell_box),
      slots_(slot_registry) {}

void EmptinessStructure::Insert(PointId p) {
  if (static_cast<size_t>(p) >= slots_->size()) slots_->resize(p + 1);
  (*slots_)[p] = static_cast<int32_t>(members_.size());
  members_.push_back(p);
  const Point& pt = grid_->point(p);
  for (int k = 0; k < dim_; ++k) coords_.push_back(pt[k]);
}

void EmptinessStructure::Remove(PointId p) {
  const int32_t i = (*slots_)[p];
  DDC_DCHECK(static_cast<size_t>(i) < members_.size() && members_[i] == p);
  const PointId last = members_.back();
  members_[i] = last;
  (*slots_)[last] = i;
  members_.pop_back();
  const size_t last_start = coords_.size() - dim_;
  for (int k = 0; k < dim_; ++k) {
    coords_[i * dim_ + k] = coords_[last_start + k];
  }
  coords_.resize(last_start);
}

bool EmptinessStructure::Contains(PointId p) const {
  // Stale registry entries are harmless: the slot is validated against the
  // member list (a non-member can never pass — members_ holds only members).
  if (static_cast<size_t>(p) >= slots_->size()) return false;
  const int32_t i = (*slots_)[p];
  return static_cast<size_t>(i) < members_.size() && members_[i] == p;
}

PointId EmptinessStructure::Query(const Point& q) const {
  // Cell-box prefilter: the query provably misses every member (see
  // kBoxPrefilterSlack).
  if (box_.MinSquaredDistance(q, dim_) > outer_sq_ * (1 + kBoxPrefilterSlack)) {
    return kInvalidPoint;
  }
  // Newest-first: any member within range is a valid proof, and recently
  // promoted members make longer-lived aBCP witnesses under FIFO churn (the
  // oldest member is the next one to expire). The batched tail-first probe
  // preserves that order.
  const int i = FindLastWithinPacked(q, coords_.data(),
                                     static_cast<int>(members_.size()), dim_,
                                     outer_sq_);
  return i >= 0 ? members_[i] : kInvalidPoint;
}

}  // namespace ddc
