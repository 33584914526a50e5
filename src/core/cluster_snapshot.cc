#include "core/cluster_snapshot.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ddc {

// The legacy single-threaded entry point: every query is answered from a
// snapshot, so the concurrent readers and the owning thread run the exact
// same code over the exact same frozen state.
CGroupByResult Clusterer::Query(const std::vector<PointId>& q) {
  return Snapshot()->Query(q);
}

std::shared_ptr<const GridSnapshot> GridSnapshot::Build(
    const Sources& sources, double eps_outer, uint64_t epoch,
    GridFreezeState* state) {
  DDC_TRACE_SPAN("core.snapshot_build");
  DDC_HISTOGRAM_SCOPED("core.snapshot_build");
  DDC_COUNTER_INC("core.snapshot_builds");
  DDC_CHECK(sources.grid != nullptr && sources.is_core != nullptr &&
            sources.cell_labels != nullptr && state != nullptr);
  const Grid& grid = *sources.grid;
  const int dim = grid.dim();
  const size_t udim = static_cast<size_t>(dim);
  const int num_cells = grid.num_cells();
  const int64_t total = grid.total_inserted();
  GridFreezeState& st = *state;

  // Chunks accumulate the payloads of cells re-frozen since; once more than
  // half of the chunked cells are stale copies, re-freeze everything into
  // one chunk. Each compaction follows at least num_cells / 2 re-freezes,
  // so it costs O(1) amortized per dirty cell.
  if (st.chunked_cells_ > num_cells + num_cells / 2 + 1024) st.MarkAll();
  const bool full = st.all_dirty_ || st.prev_ == nullptr;
  // A full build patches everything onto an empty previous epoch.
  static const GridSnapshot kEmpty(0);
  const GridSnapshot& prev = full ? kEmpty : *st.prev_;

  std::shared_ptr<GridSnapshot> snap(new GridSnapshot(epoch));
  snap->dim_ = dim;
  snap->eps_outer_sq_ = eps_outer * eps_outer;
  snap->alive_ = grid.size();

  // Per-point arrays and the cell table: flat copies of the previous epoch,
  // patched below where the clusterer marked changes.
  std::vector<CellId> dirty;
  auto copy_grown = [](const auto& from, auto* to, size_t n, auto fill) {
    to->reserve(n);
    to->assign(from.begin(), from.end());
    to->resize(n, fill);
  };
  if (full) {
    dirty.resize(static_cast<size_t>(num_cells));
    std::iota(dirty.begin(), dirty.end(), CellId{0});
    st.cell_dirty_.assign(static_cast<size_t>(num_cells), 1);
    st.cell_chunk_.assign(static_cast<size_t>(num_cells), -1);
    st.first_core_.assign(static_cast<size_t>(num_cells), kInvalidPoint);
    st.chunk_live_.clear();
    st.chunk_cells_.clear();
    st.free_slots_.clear();
    st.chunked_cells_ = 0;
  } else {
    dirty.swap(st.dirty_cells_);
    st.cell_dirty_.resize(static_cast<size_t>(num_cells), 0);
    st.cell_chunk_.resize(static_cast<size_t>(num_cells), -1);
    st.first_core_.resize(static_cast<size_t>(num_cells), kInvalidPoint);
    // Cells are only created by an insert, which marks them.
    for (CellId c = static_cast<CellId>(prev.cells_.size()); c < num_cells;
         ++c) {
      DDC_DCHECK(st.cell_dirty_[c] != 0);
    }
  }
  copy_grown(prev.cell_of_, &snap->cell_of_, static_cast<size_t>(total),
             int32_t{-1});
  copy_grown(prev.point_core_, &snap->point_core_, static_cast<size_t>(total),
             uint8_t{0});
  copy_grown(prev.point_coords_, &snap->point_coords_,
             static_cast<size_t>(total) * udim, 0.0);
  copy_grown(prev.cells_, &snap->cells_, static_cast<size_t>(num_cells),
             CellRec{});
  snap->chunks_ = prev.chunks_;

  // A point's record changes only when it is born, flips core or dies:
  // ids born since the previous build (every id, on a full one) take their
  // whole record, flipped ids their core bit (cell and coordinates are
  // fixed for life), deleted ids the dead record. Flips go before deletes,
  // so an id that flipped and then died ends up dead.
  const PointId first_new = static_cast<PointId>(prev.cell_of_.size());
  for (PointId p = first_new; p < total; ++p) {
    if (!grid.alive(p)) continue;
    snap->cell_of_[p] = grid.cell_of(p);
    snap->point_core_[p] = sources.is_core(p) ? 1 : 0;
    std::copy_n(grid.point(p).data(), udim,
                snap->point_coords_.begin() + static_cast<size_t>(p) * udim);
  }
  for (const PointId p : st.flipped_) {
    if (p < first_new) snap->point_core_[p] = sources.is_core(p) ? 1 : 0;
  }
  for (const PointId p : st.deleted_) {
    if (p >= first_new) continue;
    snap->cell_of_[p] = -1;
    snap->point_core_[p] = 0;
    std::fill_n(snap->point_coords_.begin() + static_cast<size_t>(p) * udim,
                udim, 0.0);
  }

  // Pass 1 — dirty cells' members: core-member coordinates, in cell order,
  // into a fresh chunk (the per-point core bits are final by now).
  // A cell that gains its first or loses its last core member changes its
  // neighbors' core-neighbor lists, so it drags them into the dirty set.
  auto chunk = std::make_shared<CellChunk>();
  struct Offsets {
    int32_t members;
    int32_t nbrs;
  };
  std::vector<Offsets> offsets;
  offsets.reserve(dirty.size());
  for (size_t i = 0; i < dirty.size(); ++i) {
    const CellId c = dirty[i];
    const Cell& cell = grid.cell(c);
    CellRec& rec = snap->cells_[c];
    const bool was_core = rec.num_members > 0;
    const int32_t begin =
        static_cast<int32_t>(chunk->members.size() / udim);
    PointId first_core = kInvalidPoint;
    for (size_t k = 0; k < cell.points.size(); ++k) {
      const PointId p = cell.points[k];
      if (snap->point_core_[p] == 0) continue;
      if (first_core == kInvalidPoint) first_core = p;
      const double* coords = cell.coords.data() + k * udim;
      chunk->members.insert(chunk->members.end(), coords, coords + udim);
    }
    rec.num_members =
        static_cast<int32_t>(chunk->members.size() / udim) - begin;
    if (rec.num_members == 0) rec.label = 0;
    st.first_core_[c] = first_core;
    chunk->boxes.push_back(grid.cell_box(c));
    offsets.push_back(Offsets{begin, 0});
    if (!full && was_core != (rec.num_members > 0)) {
      for (const CellId nb : cell.neighbors) {
        if (st.cell_dirty_[nb] != 0) continue;
        st.cell_dirty_[nb] = 1;
        dirty.push_back(nb);
      }
    }
  }

  // Pass 2 — dirty cells' ε-close *core* cells (non-core neighbors can never
  // contribute a membership, so they are dropped at freeze time instead of
  // per query). Reads the final core status of every cell.
  for (size_t i = 0; i < dirty.size(); ++i) {
    offsets[i].nbrs = static_cast<int32_t>(chunk->nbrs.size());
    for (const CellId nb : grid.cell(dirty[i]).neighbors) {
      if (snap->cells_[nb].num_members > 0) chunk->nbrs.push_back(nb);
    }
  }

  // The chunk is complete: point the dirty cells into it and settle the
  // slot accounting (a slot no cell references any more is released; the
  // snapshots still holding it keep it alive).
  if (!dirty.empty()) {
    int32_t slot;
    if (!st.free_slots_.empty()) {
      slot = st.free_slots_.back();
      st.free_slots_.pop_back();
    } else {
      slot = static_cast<int32_t>(st.chunk_live_.size());
      st.chunk_live_.push_back(0);
      st.chunk_cells_.push_back(0);
      snap->chunks_.emplace_back();
    }
    for (size_t i = 0; i < dirty.size(); ++i) {
      const CellId c = dirty[i];
      CellRec& rec = snap->cells_[c];
      const int32_t nbr_end = i + 1 < dirty.size()
                                  ? offsets[i + 1].nbrs
                                  : static_cast<int32_t>(chunk->nbrs.size());
      rec.box = &chunk->boxes[i];
      rec.members = chunk->members.data() +
                    static_cast<size_t>(offsets[i].members) * udim;
      rec.nbrs = chunk->nbrs.data() + offsets[i].nbrs;
      rec.num_nbrs = nbr_end - offsets[i].nbrs;
      const int32_t old = st.cell_chunk_[c];
      if (old >= 0 && --st.chunk_live_[old] == 0) {
        st.chunked_cells_ -= st.chunk_cells_[old];
        st.chunk_cells_[old] = 0;
        snap->chunks_[old].reset();
        st.free_slots_.push_back(old);
        DDC_COUNTER_INC("core.snapshot_chunks_released");
      }
      st.cell_chunk_[c] = slot;
      st.cell_dirty_[c] = 0;
    }
    st.chunk_live_[slot] = static_cast<int32_t>(dirty.size());
    st.chunk_cells_[slot] = static_cast<int32_t>(dirty.size());
    st.chunked_cells_ += static_cast<int64_t>(dirty.size());
    snap->chunks_[slot] = std::move(chunk);
    DDC_COUNTER_INC("core.snapshot_chunks_built");
  }
  DDC_COUNTER_ADD("core.snapshot_cells_refrozen",
                  static_cast<int64_t>(dirty.size()));
  DDC_COUNTER_ADD("core.snapshot_cells_reused",
                  num_cells - static_cast<int64_t>(dirty.size()));

  // Pass 3 — labels of every core cell. Component ids are not stable across
  // updates (a reroot anywhere in a tour can rename a component), so this
  // one stays a full pass over the core cells, in one batch call.
  {
    DDC_HISTOGRAM_SCOPED("core.snapshot_labels");
    std::vector<CellId> core_cells;
    std::vector<PointId> first_core;
    for (CellId c = 0; c < num_cells; ++c) {
      if (snap->cells_[c].num_members == 0) continue;
      core_cells.push_back(c);
      first_core.push_back(st.first_core_[c]);
    }
    std::vector<uint64_t> labels(core_cells.size());
    sources.cell_labels(core_cells, first_core, &labels);
    for (size_t i = 0; i < core_cells.size(); ++i) {
      snap->cells_[core_cells[i]].label = labels[i];
    }
  }

  dirty.clear();
  st.dirty_cells_.swap(dirty);  // Keeps the list's capacity.
  st.flipped_.clear();
  st.deleted_.clear();
  st.all_dirty_ = false;
  st.frozen_points_ = total;
  st.prev_ = snap;
  return snap;
}

CGroupByResult GridSnapshot::Query(const std::vector<PointId>& q) const {
  CGroupByResult result;
  FlatHashMap<uint64_t, int32_t> bucket_of;
  for (const PointId pid : q) {
    if (!alive(pid)) continue;
    bool any = false;
    ForEachMembershipLabel(pid, [&](uint64_t cc) {
      any = true;
      auto [idx, inserted] = bucket_of.Emplace(
          cc, static_cast<int32_t>(result.groups.size()));
      if (inserted) result.groups.emplace_back();
      result.groups[*idx].push_back(pid);
    });
    if (!any) result.noise.push_back(pid);
  }
  return result;
}

}  // namespace ddc
