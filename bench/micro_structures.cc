// google-benchmark microbenchmarks of the individual substrates: union-find,
// Euler-tour forests, HDT connectivity, grid maintenance, emptiness queries,
// the capped core count, and the flat-hash / packed-coordinate layouts the hot
// paths run on. These are the per-operation costs the amortized analyses of
// Theorems 1 and 4 are built from.

#include <benchmark/benchmark.h>

#include <numeric>
#include <unordered_map>

#include "common/flat_hash.h"
#include "common/random.h"
#include "connectivity/hdt.h"
#include "core/emptiness.h"
#include "core/relaxed_core_tracker.h"
#include "geom/simd_kernels.h"
#include "grid/grid.h"
#include "unionfind/union_find.h"

namespace ddc {
namespace {

void BM_UnionFind_FindAfterUnions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  UnionFind uf(n);
  Rng rng(1);
  for (int i = 0; i < n / 2; ++i) {
    uf.Union(static_cast<int>(rng.NextBelow(n)),
             static_cast<int>(rng.NextBelow(n)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(uf.Find(static_cast<int>(rng.NextBelow(n))));
  }
}
BENCHMARK(BM_UnionFind_FindAfterUnions)->Arg(1024)->Arg(65536);

void BM_Ett_LinkCut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  EulerTourForest f;
  f.EnsureVertices(n);
  Rng rng(2);
  // A random spanning path to keep trees non-trivial.
  std::vector<EulerTourForest::ArcPair> arcs;
  for (int i = 0; i + 1 < n; ++i) arcs.push_back(f.Link(i, i + 1));
  for (auto _ : state) {
    const int i = static_cast<int>(rng.NextBelow(arcs.size()));
    f.Cut(arcs[i]);
    arcs[i] = f.Link(i, i + 1);
  }
}
BENCHMARK(BM_Ett_LinkCut)->Arg(1024)->Arg(16384);

void BM_Hdt_InsertDeleteMix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  HdtConnectivity c;
  c.EnsureVertices(n);
  Rng rng(3);
  std::vector<std::pair<int, int>> edges;
  std::set<std::pair<int, int>> present;
  for (auto _ : state) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (present.count(key) == 0 &&
        (edges.size() < static_cast<size_t>(n) || rng.NextBernoulli(0.5))) {
      c.AddEdge(u, v);
      present.insert(key);
      edges.push_back(key);
    } else if (!edges.empty()) {
      const size_t i = rng.NextBelow(edges.size());
      if (present.count(edges[i])) {
        c.RemoveEdge(edges[i].first, edges[i].second);
        present.erase(edges[i]);
        edges[i] = edges.back();
        edges.pop_back();
      }
    }
  }
}
BENCHMARK(BM_Hdt_InsertDeleteMix)->Arg(512)->Arg(4096);

void BM_Hdt_ComponentIds(benchmark::State& state) {
  const int n = 4096;
  HdtConnectivity c;
  c.EnsureVertices(n);
  Rng rng(4);
  for (int i = 0; i < 2 * n; ++i) {
    const int u = static_cast<int>(rng.NextBelow(n));
    const int v = static_cast<int>(rng.NextBelow(n));
    if (u != v && !c.Connected(u, v)) c.AddEdge(u, v);
  }
  // The snapshot label pass: one batch call over every vertex.
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<uint64_t> labels;
  for (auto _ : state) {
    c.ComponentIdsReadOnly(all, &labels);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Hdt_ComponentIds);

void BM_Grid_InsertDelete(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid grid(dim, 100.0 * dim);
  Rng rng(5);
  std::vector<PointId> alive;
  for (auto _ : state) {
    if (alive.size() < 10000 || rng.NextBernoulli(0.5)) {
      Point p;
      for (int i = 0; i < dim; ++i) p[i] = rng.NextDouble(0, 100000.0);
      alive.push_back(grid.Insert(p).id);
    } else {
      const size_t i = rng.NextBelow(alive.size());
      grid.Delete(alive[i]);
      alive[i] = alive.back();
      alive.pop_back();
    }
  }
}
BENCHMARK(BM_Grid_InsertDelete)->Arg(2)->Arg(3)->Arg(7);

void BM_Emptiness_Query(benchmark::State& state) {
  DbscanParams params{.dim = 3, .eps = 300.0, .min_pts = 10, .rho = 0.001};
  Grid grid(3, params.eps);
  Rng rng(6);
  // 200 members in the cell [0, side)^3.
  std::vector<PointId> ids;
  for (int i = 0; i < 200; ++i) {
    Point p;
    for (int k = 0; k < 3; ++k) p[k] = rng.NextDouble(0, grid.side());
    ids.push_back(grid.Insert(p).id);
  }
  std::vector<int32_t> slots;
  EmptinessStructure s(&grid, params, grid.cell_box(grid.cell_of(ids[0])),
                       &slots);
  for (const PointId id : ids) s.Insert(id);
  for (auto _ : state) {
    Point q;
    for (int k = 0; k < 3; ++k) q[k] = rng.NextDouble(-300, 300 + grid.side());
    benchmark::DoNotOptimize(s.Query(q));
  }
}
BENCHMARK(BM_Emptiness_Query);

void BM_CoreCount(benchmark::State& state) {
  DbscanParams params{.dim = 3, .eps = 300.0, .min_pts = 10, .rho = 0.001};
  Grid grid(3, params.eps);
  // The count reads only the grid, so the tracker needs no update calls.
  RelaxedCoreTracker tracker(&grid, params);
  Rng rng(7);
  std::vector<PointId> ids;
  for (int i = 0; i < 5000; ++i) {
    Point p;
    for (int k = 0; k < 3; ++k) p[k] = rng.NextDouble(0, 3000.0);
    ids.push_back(grid.Insert(p).id);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tracker.Count(ids[rng.NextBelow(ids.size())], params.min_pts));
  }
}
BENCHMARK(BM_CoreCount);

// --- Hash-table layout: FlatHashMap vs std::unordered_map -------------------
// The access pattern mirrors the clusterer hot paths: tables keyed by packed
// 64-bit pair keys, a churn of inserts and erases around a steady size, and
// lookups that mostly hit.

template <typename Map>
void HashChurn(benchmark::State& state, Map& map) {
  const int keyspace = static_cast<int>(state.range(0));
  Rng rng(8);
  for (auto _ : state) {
    const uint64_t key = rng.NextBelow(keyspace);
    if (rng.NextBernoulli(0.5)) {
      map[key] = static_cast<int64_t>(key);
    } else {
      map.erase(key);
    }
    benchmark::DoNotOptimize(map.find(key));
  }
}

/// Adapter so the std container and FlatHashMap share one benchmark body.
struct FlatMapShim {
  FlatHashMap<uint64_t, int64_t> m;
  int64_t& operator[](uint64_t k) { return m[k]; }
  void erase(uint64_t k) { m.Erase(k); }
  const int64_t* find(uint64_t k) const { return m.Find(k); }
};

void BM_FlatHashMap_Churn(benchmark::State& state) {
  FlatMapShim map;
  HashChurn(state, map);
}
BENCHMARK(BM_FlatHashMap_Churn)->Arg(1024)->Arg(65536);

void BM_StdUnorderedMap_Churn(benchmark::State& state) {
  std::unordered_map<uint64_t, int64_t> map;
  HashChurn(state, map);
}
BENCHMARK(BM_StdUnorderedMap_Churn)->Arg(1024)->Arg(65536);

void BM_FlatHashMap_LookupHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FlatHashMap<uint64_t, int64_t> map;
  Rng rng(9);
  for (int i = 0; i < n; ++i) map[rng.NextBelow(4 * n)] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(rng.NextBelow(4 * n)));
  }
}
BENCHMARK(BM_FlatHashMap_LookupHit)->Arg(1024)->Arg(65536);

void BM_StdUnorderedMap_LookupHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::unordered_map<uint64_t, int64_t> map;
  Rng rng(9);
  for (int i = 0; i < n; ++i) map[rng.NextBelow(4 * n)] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(rng.NextBelow(4 * n)));
  }
}
BENCHMARK(BM_StdUnorderedMap_LookupHit)->Arg(1024)->Arg(65536);

// CellKey-keyed tables are the hot case (the grid's cell index): the
// key is 32 bytes, the hash is 8 mixes, and the flat table both caches the
// hash per slot and accepts it precomputed (FindHashed) the way the grid
// threads it through each operation.

std::vector<CellKey> CellKeyPool(int n) {
  std::vector<CellKey> keys;
  Rng rng(12);
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    CellKey k;
    for (int d = 0; d < 3; ++d) {
      k[d] = static_cast<int32_t>(rng.NextBelow(64)) - 32;
    }
    keys.push_back(k);
  }
  return keys;
}

void BM_FlatHashMap_CellKeyLookup(benchmark::State& state) {
  const std::vector<CellKey> keys = CellKeyPool(4096);
  FlatHashMap<CellKey, int32_t, CellKeyHash> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = static_cast<int32_t>(i);
  }
  Rng rng(13);
  for (auto _ : state) {
    const CellKey& k = keys[rng.NextBelow(keys.size())];
    benchmark::DoNotOptimize(map.FindHashed(k.Hash(), k));
  }
}
BENCHMARK(BM_FlatHashMap_CellKeyLookup);

void BM_StdUnorderedMap_CellKeyLookup(benchmark::State& state) {
  const std::vector<CellKey> keys = CellKeyPool(4096);
  std::unordered_map<CellKey, int32_t, CellKeyHash> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = static_cast<int32_t>(i);
  }
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[rng.NextBelow(keys.size())]));
  }
}
BENCHMARK(BM_StdUnorderedMap_CellKeyLookup);

// --- ε-range scan layout: packed per-cell coords vs record indirection ------
// BM_Grid_RangeScan is the shipping path (ForEachPointInRange streaming each
// cell's packed coordinate array). BM_Grid_RangeScanIndirect walks the same
// cells but fetches every candidate through grid.point(id) — the pre-overhaul
// memory layout — to keep the cost of the pointer chase measurable.

Grid& RangeScanGrid(int dim) {
  static Grid* grids[kMaxDim + 1] = {};
  if (grids[dim] == nullptr) {
    grids[dim] = new Grid(dim, 100.0 * dim);
    Rng rng(10);
    for (int i = 0; i < 50000; ++i) {
      Point p;
      for (int k = 0; k < dim; ++k) p[k] = rng.NextDouble(0, 3000.0);
      grids[dim]->Insert(p);
    }
  }
  return *grids[dim];
}

void BM_Grid_RangeScan(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid& grid = RangeScanGrid(dim);
  Rng rng(11);
  for (auto _ : state) {
    Point q;
    for (int k = 0; k < dim; ++k) q[k] = rng.NextDouble(0, 3000.0);
    int64_t hits = 0;
    grid.ForEachPointInRange(q, grid.eps(), [&](PointId) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Grid_RangeScan)->Arg(2)->Arg(3)->Arg(7);

// --- Batch distance predicate: dispatched SIMD vs forced scalar -------------
// The innermost kernel of every ε-range scan / emptiness probe / capped
// count, on the packed per-cell layout: one query against n candidate rows.
// _Dispatched runs whatever the CPUID dispatcher picked (see simd_kernels.h;
// the per-run context line prints nothing about it, so compare against
// ActiveSimdLevel() when reading results); _Scalar pins the portable loop.
// items_processed = candidate rows, so the report's items/s is rows/s.

void BatchFilterBody(benchmark::State& state, FilterWithinFn kernel) {
  const int dim = static_cast<int>(state.range(0));
  constexpr int kRows = 1024;
  Rng rng(14);
  Point q;
  for (int i = 0; i < dim; ++i) q[i] = rng.NextDouble(0, 100.0);
  std::vector<double> rows;
  rows.reserve(static_cast<size_t>(kRows) * dim);
  for (int j = 0; j < kRows; ++j) {
    for (int i = 0; i < dim; ++i) {
      rows.push_back(q[i] + rng.NextDouble(-60.0, 60.0));
    }
  }
  // ~half the rows within range, like a dense ε-scan.
  const double r_sq = 45.0 * 45.0 * dim;
  uint8_t mask[kRows];
  for (auto _ : state) {
    kernel(q.data(), rows.data(), kRows, dim, r_sq, mask);
    benchmark::DoNotOptimize(mask);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void BM_BatchFilter_Dispatched(benchmark::State& state) {
  BatchFilterBody(state, simd_internal::ActiveFilterKernel());
}
BENCHMARK(BM_BatchFilter_Dispatched)->Arg(2)->Arg(3)->Arg(5)->Arg(7);

void BM_BatchFilter_Scalar(benchmark::State& state) {
  BatchFilterBody(state, FilterKernelForLevel(SimdLevel::kScalar));
}
BENCHMARK(BM_BatchFilter_Scalar)->Arg(2)->Arg(3)->Arg(5)->Arg(7);

void BM_Grid_RangeScanIndirect(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid& grid = RangeScanGrid(dim);
  const double r_sq = grid.eps() * grid.eps();
  Rng rng(11);
  for (auto _ : state) {
    Point q;
    for (int k = 0; k < dim; ++k) q[k] = rng.NextDouble(0, 3000.0);
    int64_t hits = 0;
    grid.ForEachNearbyCell(q, [&](CellId c) {
      for (const PointId pid : grid.cell(c).points) {
        if (SquaredDistance(q, grid.point(pid), dim) <= r_sq) ++hits;
      }
    });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Grid_RangeScanIndirect)->Arg(2)->Arg(3)->Arg(7);

}  // namespace
}  // namespace ddc

BENCHMARK_MAIN();
