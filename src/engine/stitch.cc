#include "engine/stitch.h"

#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace ddc {

BoundaryStitcher::BoundaryStitcher(int dim, double eps)
    : dim_(dim),
      eps_(eps),
      eps_sq_(eps * eps),
      table_(std::make_shared<LabelTable>()) {
  DDC_CHECK(dim >= 1 && dim <= kMaxDim);
  DDC_CHECK(eps > 0);
}

void BoundaryStitcher::AddCore(PointId gid, const Point& p,
                               const Holders& at) {
  DDC_CHECK(at.owner >= 0 && at.local != kInvalidPoint);
  DDC_CHECK(at.owner > 0 || at.below == kInvalidPoint);
  auto [rec, inserted] = points_.Emplace(gid);
  DDC_CHECK(inserted && "AddCore of an already-registered point");
  const int shard = at.owner;
  rec->at = at;
  rec->point = p;
  if (shard >= static_cast<int>(per_shard_points_.size())) {
    per_shard_points_.resize(shard + 1, 0);
  }
  ++per_shard_points_[shard];

  // Probe the 3^dim cells around p for cross-shard partners within eps.
  // The hash cell side is eps, so any point within eps lies in one of them.
  const CellKey home = CellKey::Of(p, dim_, eps_);
  CellKey probe = home;
  int offset[kMaxDim] = {};
  for (int i = 0; i < dim_; ++i) {
    offset[i] = -1;
    probe[i] = home[i] - 1;
  }
  for (;;) {
    if (const std::vector<PointId>* bucket = cells_.Find(probe)) {
      for (const PointId other : *bucket) {
        PointRec* orec = points_.Find(other);
        if (orec->at.owner == shard) continue;
        if (!WithinSquared(p, orec->point, dim_, eps_sq_)) continue;
        orec->edges.push_back(gid);
        rec->edges.push_back(other);
        ++num_edges_;
      }
    }
    // Odometer over {-1, 0, 1}^dim.
    int i = 0;
    while (i < dim_ && offset[i] == 1) {
      offset[i] = -1;
      probe[i] = home[i] - 1;
      ++i;
    }
    if (i == dim_) break;
    ++offset[i];
    probe[i] = home[i] + offset[i];
  }

  cells_[home].push_back(gid);
}

void BoundaryStitcher::RemoveCore(PointId gid) {
  PointRec* rec = points_.Find(gid);
  DDC_CHECK(rec != nullptr && "RemoveCore of an unregistered point");

  for (const PointId partner : rec->edges) {
    std::vector<PointId>& back = points_.Find(partner)->edges;
    for (size_t i = 0; i < back.size(); ++i) {
      if (back[i] == gid) {
        back[i] = back.back();
        back.pop_back();
        break;
      }
    }
    --num_edges_;
  }

  const CellKey home = CellKey::Of(rec->point, dim_, eps_);
  std::vector<PointId>& bucket = *cells_.Find(home);
  for (size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] == gid) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      break;
    }
  }
  if (bucket.empty()) cells_.Erase(home);

  --per_shard_points_[rec->at.owner];
  points_.Erase(gid);
}

int32_t BoundaryStitcher::InternKey(LabelTable& table, UnionFind& uf,
                                    const LabelKey& key) {
  auto [idx, inserted] =
      table.index_.Emplace(key, static_cast<int32_t>(table.index_.size()));
  if (inserted) uf.EnsureSize(*idx + 1);
  return *idx;
}

std::shared_ptr<const BoundaryStitcher::LabelTable>
BoundaryStitcher::BuildTable(
    const std::vector<std::shared_ptr<const GridSnapshot>>& shards) const {
  // A fresh table per epoch: snapshots holding the previous one keep
  // resolving against their own frozen epoch.
  auto table = std::make_shared<LabelTable>();
  UnionFind uf;

  // Pass 1: same-point rule. Every shard where a registered point is
  // locally core contributes a key; all of one point's keys collapse.
  // Remember each point's owner key index for the edge pass.
  FlatHashMap<PointId, int32_t> owner_key;
  owner_key.Reserve(points_.size());
  points_.ForEach([&](const PointId& gid, const PointRec& rec) {
    const int32_t owner = rec.at.owner;
    const GridSnapshot& own = *shards[owner];
    // Registered points are core in their owner shard by construction.
    DDC_CHECK(own.is_core(rec.at.local));
    const int32_t first = InternKey(
        *table, uf, LabelKey{owner, own.CoreLabelOf(rec.at.local)});
    owner_key[gid] = first;
    for (const auto& [t, local] : {std::pair{owner - 1, rec.at.below},
                                   std::pair{owner + 1, rec.at.above}}) {
      if (local == kInvalidPoint) continue;
      const GridSnapshot& ghost = *shards[t];
      if (!ghost.is_core(local)) continue;
      uf.Union(first, InternKey(*table, uf,
                                LabelKey{t, ghost.CoreLabelOf(local)}));
    }
  });

  // Pass 2: edge rule. Each cross-shard core-core pair identifies its
  // endpoints' owner components. Edges appear in both adjacency lists;
  // process each once.
  points_.ForEach([&](const PointId& gid, const PointRec& rec) {
    for (const PointId partner : rec.edges) {
      if (partner < gid) continue;
      uf.Union(*owner_key.Find(gid), *owner_key.Find(partner));
    }
  });

  table->root_.resize(table->index_.size());
  for (int32_t i = 0; i < static_cast<int32_t>(table->root_.size()); ++i) {
    table->root_[i] = uf.Find(i);
  }
  return table;
}

}  // namespace ddc
