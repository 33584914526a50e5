#include "core/fully_dynamic_clusterer.h"

#include "common/check.h"
#include "core/cluster_query.h"
#include "telemetry/metrics.h"

namespace ddc {

FullyDynamicClusterer::FullyDynamicClusterer(const DbscanParams& params)
    : params_(params),
      grid_(params.dim, params.eps),
      tracker_(&grid_, params) {
  params_.Validate();
}

CellCoreState& FullyDynamicClusterer::State(CellId c) {
  DDC_DCHECK(static_cast<size_t>(c) < cells_.size());
  CellCoreState& s = cells_[c];
  if (s.core_set == nullptr) {
    s.core_set = std::make_unique<EmptinessStructure>(
        &grid_, params_, grid_.cell_box(c), &core_slots_);
  }
  return s;
}

void FullyDynamicClusterer::SetEdge(CellId a, CellId b, bool present) {
  if (present) {
    cc_.AddEdge(a, b);
    ++num_edges_;
  } else {
    cc_.RemoveEdge(a, b);
    --num_edges_;
  }
}

PointId FullyDynamicClusterer::Insert(const Point& p) {
  const Grid::InsertResult ins = grid_.Insert(p);
  // Cells are only materialized here, so GUM callbacks below never resize
  // cells_ (references into it stay valid).
  if (ins.cell_created) {
    cells_.resize(grid_.num_cells());
    cc_.EnsureVertices(grid_.num_cells());
  }
  freeze_.MarkCell(ins.cell);
  tracker_.OnInsert(ins.id, ins.cell,
                    [this](PointId q, CellId c) { OnCorePromoted(q, c); });
  snapshot_cache_.BumpVersion();
  return ins.id;
}

void FullyDynamicClusterer::Delete(PointId id) {
  DDC_CHECK(grid_.alive(id));
  const CellId cell = grid_.cell_of(id);
  // The departing point first loses its own core status (GUM fallout:
  // aBCP removals, possibly edge removals / cell leaving the grid graph).
  if (tracker_.is_core(id)) {
    tracker_.ClearCore(id);
    OnCoreDemoted(id, cell);
  }
  grid_.Delete(id);
  freeze_.MarkDeleted(id, cell);
  // Remaining points may demote now that the counts dropped.
  tracker_.OnDelete(id, cell,
                    [this](PointId q, CellId c) { OnCoreDemoted(q, c); });
  snapshot_cache_.BumpVersion();
}

void FullyDynamicClusterer::CreateInstance(CellId a, CellId b) {
  int32_t idx;
  if (!free_instances_.empty()) {
    idx = free_instances_.back();
    free_instances_.pop_back();
    instances_[idx] = AbcpInstance(a, b);
  } else {
    idx = static_cast<int32_t>(instances_.size());
    instances_.push_back(AbcpInstance(a, b));
  }
  State(a).instance_peers.push_back({b, idx});
  State(b).instance_peers.push_back({a, idx});
  if (instances_[idx].Initialize(grid_, State(a), State(b))) {
    SetEdge(a, b, true);
  }
}

void FullyDynamicClusterer::DestroyInstance(CellId a, CellId b,
                                            int32_t instance) {
  if (instances_[instance].has_witness()) SetEdge(a, b, false);
  free_instances_.push_back(instance);
  for (const CellId x : {a, b}) {
    auto& peers = State(x).instance_peers;
    for (size_t i = 0; i < peers.size(); ++i) {
      if (peers[i].instance == instance) {
        peers[i] = peers.back();
        peers.pop_back();
        break;
      }
    }
  }
}

void FullyDynamicClusterer::OnCorePromoted(PointId p, CellId cell) {
  DDC_COUNTER_INC("core.promotions");
  if (core_observer_) core_observer_(p, true);
  freeze_.MarkCore(p, cell);
  CellCoreState& s = State(cell);
  const bool was_core_cell = s.is_core_cell();
  s.core_set->Insert(p);
  s.log.push_back(p);

  if (!was_core_cell) {
    // The cell joins the grid graph: start an aBCP instance against every
    // ε-close core cell (initial witness scans are cheap — this cell holds
    // at most MinPts core points right now).
    for (const CellId nb : grid_.cell(cell).neighbors) {
      if (cells_[nb].is_core_cell()) CreateInstance(cell, nb);
    }
    return;
  }
  // Feed the arrival to every *witnessless* instance of this cell; edges
  // may appear. Instances holding a witness ignore arrivals by design (the
  // newcomer just stays in the log suffix), so they are skipped without the
  // call.
  for (const auto& [nb, idx] : s.instance_peers) {
    AbcpInstance& inst = instances_[idx];
    if (inst.has_witness()) continue;
    if (inst.OnCoreInsert(grid_, State(inst.c1()), State(inst.c2()))) {
      SetEdge(cell, nb, true);
    }
  }
}

void FullyDynamicClusterer::OnCoreDemoted(PointId p, CellId cell) {
  DDC_COUNTER_INC("core.demotions");
  if (core_observer_) core_observer_(p, false);
  freeze_.MarkCore(p, cell);
  CellCoreState& s = State(cell);
  s.core_set->Remove(p);

  if (!s.is_core_cell()) {
    // The cell leaves the grid graph: drop all of its instances.
    const std::vector<CellCoreState::PeerLink> peers = s.instance_peers;
    for (const auto& [nb, idx] : peers) DestroyInstance(cell, nb, idx);
    return;
  }
  for (const auto& [nb, idx] : s.instance_peers) {
    AbcpInstance& inst = instances_[idx];
    // Cheap precheck: a departure only matters to an instance whose current
    // witness is exactly the departing point (no witness -> L is empty; a
    // different witness survives untouched). Newest-first witness selection
    // makes this the common case under FIFO churn.
    const bool was_w1 = inst.c1() == cell && inst.w1() == p;
    const bool was_w2 = inst.c2() == cell && inst.w2() == p;
    if (!was_w1 && !was_w2) continue;
    if (!inst.OnCoreRemove(grid_, State(inst.c1()), State(inst.c2()), cell,
                           p)) {
      SetEdge(cell, nb, false);
    }
  }
}

std::shared_ptr<const GridSnapshot> FullyDynamicClusterer::Freeze(
    uint64_t epoch, GridFreezeState* state) {
  GridSnapshot::Sources sources;
  sources.grid = &grid_;
  sources.is_core = [this](PointId p) { return tracker_.is_core(p); };
  sources.cell_labels = [this](const std::vector<CellId>& cells,
                               const std::vector<PointId>&,
                               std::vector<uint64_t>* labels) {
    cc_.ComponentIdsReadOnly(cells, labels);
  };
  return GridSnapshot::Build(sources, params_.eps_outer(), epoch, state);
}

std::shared_ptr<const ClusterSnapshot> FullyDynamicClusterer::Snapshot() {
  return snapshot_cache_.GetOrBuild(
      [this](uint64_t epoch) { return Freeze(epoch, &freeze_); });
}

std::shared_ptr<const ClusterSnapshot> FullyDynamicClusterer::FullSnapshot() {
  GridFreezeState fresh;
  return Freeze(snapshot_cache_.version(), &fresh);
}

std::vector<PointId> FullyDynamicClusterer::AlivePoints() const {
  std::vector<PointId> ids;
  ids.reserve(grid_.size());
  for (PointId i = 0; i < grid_.total_inserted(); ++i) {
    if (grid_.alive(i)) ids.push_back(i);
  }
  return ids;
}

}  // namespace ddc
