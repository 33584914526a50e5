#include "core/semi_dynamic_clusterer.h"

#include "common/check.h"

namespace ddc {

SemiDynamicClusterer::SemiDynamicClusterer(const DbscanParams& params)
    : params_(params),
      grid_(params.dim, params.eps),
      tracker_(&grid_, params) {
  params_.Validate();
}

uint64_t SemiDynamicClusterer::EdgeKey(CellId a, CellId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

EmptinessStructure* SemiDynamicClusterer::CoreSet(CellId c) {
  if (static_cast<size_t>(c) >= cell_core_.size()) {
    cell_core_.resize(grid_.num_cells());
  }
  if (cell_core_[c] == nullptr) {
    cell_core_[c] = std::make_unique<EmptinessStructure>(
        &grid_, params_, grid_.cell_box(c), &core_slots_);
  }
  return cell_core_[c].get();
}

PointId SemiDynamicClusterer::Insert(const Point& p) {
  const Grid::InsertResult ins = grid_.Insert(p);
  freeze_.MarkCell(ins.cell);
  uf_.EnsureSize(grid_.num_cells());
  tracker_.OnInsert(ins.id, ins.cell,
                    [this](PointId q, CellId c) { OnNewCore(q, c); });
  snapshot_cache_.BumpVersion();
  return ins.id;
}

void SemiDynamicClusterer::Delete(PointId /*id*/) {
  DDC_CHECK(false && "SemiDynamicClusterer supports insertions only");
}

void SemiDynamicClusterer::OnNewCore(PointId p, CellId cell) {
  freeze_.MarkCore(p, cell);
  CoreSet(cell)->Insert(p);
  const Point& pt = grid_.point(p);
  // GUM: try to materialize an edge to every ε-close core cell that has no
  // edge to `cell` yet. One emptiness query per missing edge (Section 5).
  for (const CellId nb : grid_.cell(cell).neighbors) {
    if (static_cast<size_t>(nb) >= cell_core_.size() ||
        cell_core_[nb] == nullptr || cell_core_[nb]->size() == 0) {
      continue;  // Not a core cell.
    }
    const uint64_t key = EdgeKey(cell, nb);
    if (edges_.Contains(key)) continue;
    if (cell_core_[nb]->Query(pt) != kInvalidPoint) {
      edges_.Insert(key);
      uf_.Union(cell, nb);
    }
  }
}

std::shared_ptr<const GridSnapshot> SemiDynamicClusterer::Freeze(
    uint64_t epoch, GridFreezeState* state) const {
  GridSnapshot::Sources sources;
  sources.grid = &grid_;
  sources.is_core = [this](PointId p) { return tracker_.is_core(p); };
  sources.cell_labels = [this](const std::vector<CellId>& cells,
                               const std::vector<PointId>&,
                               std::vector<uint64_t>* labels) {
    for (size_t i = 0; i < cells.size(); ++i) {
      (*labels)[i] = static_cast<uint64_t>(uf_.FindReadOnly(cells[i]));
    }
  };
  return GridSnapshot::Build(sources, params_.eps_outer(), epoch, state);
}

std::shared_ptr<const ClusterSnapshot> SemiDynamicClusterer::Snapshot() {
  return snapshot_cache_.GetOrBuild(
      [this](uint64_t epoch) { return Freeze(epoch, &freeze_); });
}

std::shared_ptr<const ClusterSnapshot> SemiDynamicClusterer::FullSnapshot() {
  GridFreezeState fresh;
  return Freeze(snapshot_cache_.version(), &fresh);
}

std::vector<PointId> SemiDynamicClusterer::AlivePoints() const {
  std::vector<PointId> ids(grid_.total_inserted());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);
  return ids;
}

}  // namespace ddc
