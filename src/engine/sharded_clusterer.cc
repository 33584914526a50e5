#include "engine/sharded_clusterer.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ddc {

ShardedClusterer::ShardedClusterer(const DbscanParams& params,
                                   const Options& options)
    : params_(params),
      options_(options),
      map_(options.shards, params.dim, params.eps_outer()),
      stitcher_(params.dim, params.eps) {
  params_.Validate();
  DDC_CHECK(options_.shards >= 1 && options_.shards <= kMaxShards);
  DDC_CHECK(options_.threads >= 0 && options_.threads <= kMaxShards);
  DDC_CHECK(options_.batch >= 1);
  DDC_CHECK(options_.warmup >= 0);
  DDC_CHECK(options_.rebalance.split_imbalance > 1.0);
  DDC_CHECK(options_.rebalance.merge_fill > 0);
  DDC_CHECK(options_.rebalance.epochs >= 1);
  DDC_CHECK(options_.rebalance.cooldown >= 0);
  DDC_CHECK(options_.rebalance.max_shards >= 0 &&
            options_.rebalance.max_shards <= kMaxShards);
  DDC_CHECK(options_.rebalance.min_shards >= 0 &&
            options_.rebalance.min_shards <= kMaxShards);
  if (options_.threads == 0) options_.threads = options_.shards;

  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) shards_.push_back(MakeShard());
  RenumberShards();
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  StartWatchdog();
}

std::unique_ptr<ShardedClusterer::Shard> ShardedClusterer::MakeShard() {
  auto shard = std::make_unique<Shard>();
  shard->id = next_shard_id_++;
  shard->clusterer = std::make_unique<FullyDynamicClusterer>(params_);
  // The observer runs on the shard's worker thread and only touches
  // worker-side state; Flush's drain hands it to the ingest thread.
  Shard* s = shard.get();
  shard->clusterer->set_core_observer([s](PointId local, bool now_core) {
    s->core_count += now_core ? 1 : -1;
    if (s->is_boundary[local]) {
      s->deltas.push_back(CoreDelta{s->global_of[local], local, now_core,
                                    s->clusterer->grid().point(local)});
    }
  });
  return shard;
}

void ShardedClusterer::RenumberShards() {
  for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
    shards_[i]->index = i;
    shards_[i]->worker = i % options_.threads;
  }
}

void ShardedClusterer::StartWatchdog() {
  watchdog_.reset();
  if (options_.watchdog_deadline_ms <= 0) return;
  // One label per worker naming the shards pinned to it, so a stall report
  // points at the data, not just the thread. Rebuilt after every
  // split/merge — the pinning follows the slab indices.
  const int num_shards = static_cast<int>(shards_.size());
  std::vector<const WorkerHealth*> health;
  std::vector<std::string> labels(options_.threads);
  for (int w = 0; w < options_.threads; ++w) {
    health.push_back(&pool_->health(w));
    std::string shard_list;
    for (int s = w; s < num_shards; s += options_.threads) {
      if (!shard_list.empty()) shard_list += ",";
      shard_list += std::to_string(s);
    }
    labels[w] = "shard=" + shard_list;
  }
  Watchdog::Options wd;
  wd.deadline_ms = options_.watchdog_deadline_ms;
  watchdog_ = std::make_unique<Watchdog>(
      std::move(health), std::move(labels), wd,
      [this](const Watchdog::Stall& stall) {
        std::fprintf(stderr,
                     "[ddc watchdog] worker %d (%s) quiet %.1fs with %lld "
                     "batch(es) queued; %llu tasks done, epoch %" PRIu64 "\n",
                     stall.worker, stall.label.c_str(), stall.quiet_seconds,
                     static_cast<long long>(stall.queue_depth),
                     static_cast<unsigned long long>(stall.tasks_completed),
                     epoch());
      });
}

ShardedClusterer::~ShardedClusterer() {
  // The watchdog reads worker health cells, so it goes first; then stop the
  // workers before any shard state they touch goes away. The pool
  // destructor runs every queued batch first.
  watchdog_.reset();
  pool_.reset();
}

PointId ShardedClusterer::Insert(const Point& p) {
  const PointId gid = static_cast<PointId>(points_.size());
  points_.push_back(PointRec{});
  points_[gid].alive = true;
  ++alive_;

  if (!map_.initialized()) {
    warmup_buffer_.push_back(Op{gid, true, false, 0, p});
    ++warmup_inserts_;
    if (warmup_inserts_ >= options_.warmup) FinishWarmup();
    return gid;
  }
  RouteInsert(gid, p);
  return gid;
}

void ShardedClusterer::Delete(PointId id) {
  DDC_CHECK(id >= 0 && id < static_cast<PointId>(points_.size()) &&
            points_[id].alive);
  points_[id].alive = false;
  --alive_;

  if (!map_.initialized()) {
    warmup_buffer_.push_back(Op{id, false, false, 0, Point{}});
    return;
  }
  RouteDelete(id);
}

void ShardedClusterer::RouteInsert(PointId gid, const Point& p) {
  PointRec& rec = points_[gid];
  const int owner = map_.OwnerOf(p);
  const ShardMap::Range holders = map_.HoldersOf(p);
  DDC_DCHECK(holders.first <= owner && owner <= holders.last);
  rec.owner = static_cast<uint8_t>(owner);
  rec.first_holder = static_cast<uint8_t>(holders.first);
  rec.last_holder = static_cast<uint8_t>(holders.last);

  Op op;
  op.gid = gid;
  op.is_insert = true;
  op.boundary = map_.NearBoundary(p, owner);
  op.owner = static_cast<uint8_t>(owner);
  op.point = p;
  for (int t = holders.first; t <= holders.last; ++t) {
    EnqueueOp(*shards_[t], op);
  }
}

void ShardedClusterer::RouteDelete(PointId gid) {
  const PointRec& rec = points_[gid];
  Op op;
  op.gid = gid;
  op.is_insert = false;
  op.boundary = false;
  op.owner = rec.owner;
  for (int t = rec.first_holder; t <= rec.last_holder; ++t) {
    EnqueueOp(*shards_[t], op);
  }
}

void ShardedClusterer::EnqueueOp(Shard& shard, const Op& op) {
  shard.open.push_back(op);
  if (static_cast<int>(shard.open.size()) >= options_.batch) {
    PublishShard(shard);
  }
}

void ShardedClusterer::PublishShard(Shard& shard) {
  if (shard.open.empty()) return;
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    was_empty = shard.pending.empty();
    shard.pending.push_back(std::move(shard.open));
    const int64_t depth = static_cast<int64_t>(shard.pending.size());
    if (depth > shard.queue_hwm) shard.queue_hwm = depth;
  }
  shard.open.clear();
  // A non-empty queue already has a task coming that will take this batch
  // along with the rest.
  if (was_empty) {
    pool_->Submit(shard.worker, [this, s = &shard] { ProcessShard(s); });
  }
}

void ShardedClusterer::ProcessShard(Shard* shard) {
  // Takes every batch queued so far in one swap; batches published after it
  // find the queue empty and submit the next task.
  std::vector<std::vector<Op>> batches;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    batches.swap(shard->pending);
  }
  for (const std::vector<Op>& batch : batches) {
    DDC_TRACE_SPAN("engine.shard_batch");
    const auto t0 = std::chrono::steady_clock::now();
    for (const Op& op : batch) ApplyOp(*shard, op);
    const double batch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    shard->busy_seconds += batch_seconds;
    DDC_HISTOGRAM_RECORD("engine.shard_batch", batch_seconds * 1e6);
    shard->ops_applied += static_cast<int64_t>(batch.size());
    ++shard->batches_applied;
    shard->dirty = true;
  }
}

void ShardedClusterer::ApplyOp(Shard& shard, const Op& op) {
  if (op.is_insert) {
    const bool owned = static_cast<int>(op.owner) == shard.index;
    // The local id the grid will assign; registered before Insert so the
    // core observer can translate it the moment the new point promotes.
    const PointId local =
        static_cast<PointId>(shard.clusterer->grid().total_inserted());
    shard.global_of.push_back(op.gid);
    shard.is_owned.push_back(owned ? 1 : 0);
    shard.is_boundary.push_back(owned && op.boundary ? 1 : 0);
    const PointId got = shard.clusterer->Insert(op.point);
    DDC_CHECK(got == local);
    shard.local_of[op.gid] = local;
    (owned ? shard.owned_alive : shard.ghost_alive) += 1;
    return;
  }
  PointId* local = shard.local_of.Find(op.gid);
  DDC_CHECK(local != nullptr);
  (shard.is_owned[*local] ? shard.owned_alive : shard.ghost_alive) -= 1;
  shard.clusterer->Delete(*local);
  shard.local_of.Erase(op.gid);
}

void ShardedClusterer::FinishWarmup() {
  DDC_TRACE_SPAN("engine.warmup_replay");
  std::vector<Point> sample;
  sample.reserve(warmup_buffer_.size());
  for (const Op& op : warmup_buffer_) {
    if (op.is_insert) sample.push_back(op.point);
  }
  map_.InitFromSample(sample);

  // Replay the buffered prefix verbatim — same op order the caller issued,
  // so shards=1 reproduces the unsharded engine's history exactly.
  std::vector<Op> buffered;
  buffered.swap(warmup_buffer_);
  for (const Op& op : buffered) {
    if (op.is_insert) {
      RouteInsert(op.gid, op.point);
    } else {
      RouteDelete(op.gid);
    }
  }
}

void ShardedClusterer::Flush() {
  DDC_TRACE_SPAN("engine.flush");
  if (!map_.initialized()) FinishWarmup();
  for (auto& shard : shards_) PublishShard(*shard);
  pool_->Drain();

  // Workers are quiescent: fold their boundary transitions into the stitch
  // registry (per-shard order preserved; cross-shard order is irrelevant —
  // adds probe the current registry and removes purge their own edges).
  bool dirty = false;
  for (auto& shard : shards_) {
    for (const CoreDelta& d : shard->deltas) {
      if (d.now_core) {
        stitcher_.AddCore(d.gid, d.point,
                          StitchHolders(d.gid, shard->index, d.local));
      } else {
        stitcher_.RemoveCore(d.gid);
      }
    }
    shard->deltas.clear();
    if (shard->dirty) {
      dirty = true;
      shard->dirty = false;
    }
  }
  if (!dirty && published_.Load() != nullptr) return;

  // The rebalance controller acts before anything is frozen: a topology
  // change replays its migrants into fresh shards and resets the stitcher,
  // and the steps below then freeze, stitch and compose the new topology as
  // one consistent epoch — readers never see a torn routing map.
  if (dirty) MaybeRebalance();

  // Freeze, then stitch from the frozen shard labels — exactly the labels
  // readers resolve — then compose. The freeze stays on this thread: the
  // workers are idle here, but spreading it over them would trade CPU time
  // for a shorter barrier.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  FreezeShards();
  const Clock::time_point t1 = Clock::now();
  if (dirty) RebuildLabels();
  const Clock::time_point t2 = Clock::now();
  {
    DDC_TRACE_SPAN("engine.snapshot_compose");
    DDC_COUNTER_INC("engine.snapshot_publications");
    published_.Store(Compose(frozen_, stitcher_.table()));
  }
  const Clock::time_point t3 = Clock::now();
  auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  DDC_HISTOGRAM_RECORD("engine.snapshot_freeze", us(t1 - t0));
  DDC_HISTOGRAM_RECORD("engine.snapshot_compose", us(t3 - t2));
  DDC_HISTOGRAM_RECORD("engine.snapshot_publish", us((t1 - t0) + (t3 - t2)));
}

void ShardedClusterer::FreezeShards() {
  DDC_TRACE_SPAN("engine.snapshot_freeze");
  // Shards that applied nothing since their last freeze hand back their
  // cached snapshot.
  frozen_.clear();
  for (auto& shard : shards_) {
    frozen_.push_back(std::static_pointer_cast<const GridSnapshot>(
        shard->clusterer->Snapshot()));
  }
}

void ShardedClusterer::RebuildLabels() {
  // Shard-local component labels are stable only between updates, so any
  // applied batch invalidates the previous epoch's label table. The new
  // table goes into a fresh object — snapshots of older epochs keep
  // resolving against theirs.
  DDC_TRACE_SPAN("engine.stitch_rebuild");
  DDC_HISTOGRAM_SCOPED("engine.stitch_rebuild");
  DDC_COUNTER_INC("engine.stitch_rebuilds");
  stitcher_.Rebuild(frozen_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// Elastic rebalancing. Everything below runs on the ingest thread with the
// workers quiescent (called from Flush, after the drain barrier).

bool ShardedClusterer::MaybeRebalance() {
  const RebalanceOptions& rb = options_.rebalance;
  const int num_shards = static_cast<int>(shards_.size());

  int64_t max_owned = -1;
  int hot = 0;
  for (int i = 0; i < num_shards; ++i) {
    if (shards_[i]->owned_alive > max_owned) {
      max_owned = shards_[i]->owned_alive;
      hot = i;
    }
  }
  const double mean =
      static_cast<double>(alive_) / static_cast<double>(num_shards);
  const double imbalance =
      mean > 0 ? static_cast<double>(max_owned) / mean : 1.0;
  last_imbalance_milli_ = std::llround(imbalance * 1000.0);
  DDC_GAUGE_SET("engine.shard_imbalance", last_imbalance_milli_);

  if (!rb.enabled || !map_.initialized()) return false;
  if (alive_ < rb.min_points) {
    split_streak_ = merge_streak_ = 0;
    return false;
  }

  const int max_shards =
      rb.max_shards > 0 ? std::min(rb.max_shards, kMaxShards)
                        : std::min(2 * options_.shards, kMaxShards);
  const int min_shards = std::max(1, rb.min_shards);

  // Coldest adjacent pair (merge candidate).
  int cold = -1;
  int64_t cold_sum = 0;
  for (int i = 0; i + 1 < num_shards; ++i) {
    const int64_t sum =
        shards_[i]->owned_alive + shards_[i + 1]->owned_alive;
    if (cold < 0 || sum < cold_sum) {
      cold = i;
      cold_sum = sum;
    }
  }

  split_streak_ = imbalance > rb.split_imbalance ? split_streak_ + 1 : 0;
  const bool merge_wanted = num_shards > min_shards && cold >= 0 &&
                            static_cast<double>(cold_sum) <
                                rb.merge_fill * mean;
  merge_streak_ = merge_wanted ? merge_streak_ + 1 : 0;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return false;
  }

  if (split_streak_ >= rb.epochs) {
    // The merge that stands in for an impossible split: the coldest
    // adjacent pair that excludes the hot shard and stays strictly below
    // it — then the max is unchanged while the mean rises, so max/mean
    // strictly decreases. This is the only lever left when the hot slab
    // cannot be cut: at the shard budget, at the 2·halo floor width, or
    // holding one tight blob the admissible band cannot separate.
    const auto merge_for_headroom = [&]() -> bool {
      int best = -1;
      int64_t best_sum = 0;
      for (int i = 0; i + 1 < num_shards; ++i) {
        if (i == hot || i + 1 == hot) continue;
        const int64_t sum =
            shards_[i]->owned_alive + shards_[i + 1]->owned_alive;
        if (best < 0 || sum < best_sum) {
          best = i;
          best_sum = sum;
        }
      }
      return best >= 0 && num_shards > min_shards && best_sum < max_owned &&
             MergeShards(best);
    };
    if (num_shards < max_shards && SplitShard(hot)) {
      split_streak_ = merge_streak_ = 0;
      cooldown_left_ = rb.cooldown;
      return true;
    }
    if (merge_for_headroom()) {
      split_streak_ = merge_streak_ = 0;
      cooldown_left_ = rb.cooldown;
      return true;
    }
    // Fall through to the ordinary merge branch; a cold-enough pair next
    // to the hot shard may still be mergeable even when the headroom
    // merge is not.
    split_streak_ = 0;
  }

  if (merge_streak_ >= rb.epochs) {
    if (MergeShards(cold)) {
      split_streak_ = merge_streak_ = 0;
      cooldown_left_ = rb.cooldown;
      return true;
    }
    merge_streak_ = 0;
  }
  return false;
}

std::vector<ShardedClusterer::Migrant> ShardedClusterer::CollectLive(
    const Shard& shard) const {
  std::vector<Migrant> out;
  out.reserve(shard.local_of.size());
  // Walk local ids in order (not the hash map) so the replay order — and
  // with it every don't-care decision downstream — is deterministic.
  const PointId n = static_cast<PointId>(shard.global_of.size());
  for (PointId local = 0; local < n; ++local) {
    const PointId gid = shard.global_of[local];
    const PointId* cur = shard.local_of.Find(gid);
    if (cur == nullptr || *cur != local) continue;  // Deleted.
    out.push_back(Migrant{gid, shard.clusterer->grid().point(local)});
  }
  return out;
}

bool ShardedClusterer::ChooseSplitCut(const Shard& shard, double* cut) const {
  std::vector<double> xs;
  xs.reserve(static_cast<size_t>(std::max<int64_t>(shard.owned_alive, 0)));
  const int d = map_.split_dim();
  const PointId n = static_cast<PointId>(shard.global_of.size());
  for (PointId local = 0; local < n; ++local) {
    if (!shard.is_owned[local]) continue;
    const PointId* cur = shard.local_of.Find(shard.global_of[local]);
    if (cur == nullptr || *cur != local) continue;
    xs.push_back(shard.clusterer->grid().point(local)[d]);
  }
  if (xs.size() < 4) return false;

  const size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  double c = xs[mid];
  // Clamp into the slab's admissible band: both children must keep the
  // 2·halo minimum width (infinite end sides constrain nothing).
  const double margin = 2 * map_.halo();
  const double lo = map_.slab_lo(shard.index);
  const double hi = map_.slab_hi(shard.index);
  if (std::isfinite(lo)) c = std::max(c, lo + margin);
  if (std::isfinite(hi)) c = std::min(c, hi - margin);
  if (!map_.CanSplitAt(shard.index, c)) return false;

  // A useless cut (nearly everything on one side after clamping) would
  // leave the child immediately hot again; wait instead.
  int64_t below = 0;
  for (const double x : xs) below += x < c ? 1 : 0;
  const int64_t above = static_cast<int64_t>(xs.size()) - below;
  const int64_t min_side =
      std::max<int64_t>(1, static_cast<int64_t>(xs.size()) / 16);
  if (below < min_side || above < min_side) return false;

  *cut = c;
  return true;
}

void ShardedClusterer::ApplyMigration(Shard& shard, PointId gid,
                                      const Point& p) {
  const PointRec& rec = points_[gid];
  Op op;
  op.gid = gid;
  op.is_insert = true;
  op.boundary = map_.NearBoundary(p, rec.owner);
  op.owner = rec.owner;
  op.point = p;
  ApplyOp(shard, op);
}

void ShardedClusterer::ReRoutePoints(
    int pos, int replaced, int delta, const std::vector<Migrant>& migrants,
    const FlatHashMap<PointId, int32_t>& migrant_of) {
  // A point held by any replaced shard is re-routed from its coordinates
  // against the new map; every other live point only index-shifts. Soundness
  // of the shift: slab geometry outside the replaced range is unchanged, so
  // owner/holder sets are the old ones with indices above the range moved
  // by `delta` — and a holder interval never straddles the replaced range
  // without touching it (holder ranges are contiguous).
  const int last_replaced = pos + replaced - 1;
  for (PointId gid = 0; gid < static_cast<PointId>(points_.size()); ++gid) {
    PointRec& rec = points_[gid];
    if (!rec.alive) continue;
    if (rec.first_holder <= last_replaced && pos <= rec.last_holder) {
      const int32_t* mi = migrant_of.Find(gid);
      DDC_CHECK(mi != nullptr);
      const Point& p = migrants[*mi].point;
      const int owner = map_.OwnerOf(p);
      const ShardMap::Range holders = map_.HoldersOf(p);
      DDC_DCHECK(holders.first <= owner && owner <= holders.last);
      rec.owner = static_cast<uint8_t>(owner);
      rec.first_holder = static_cast<uint8_t>(holders.first);
      rec.last_holder = static_cast<uint8_t>(holders.last);
    } else {
      if (rec.owner > last_replaced) {
        rec.owner = static_cast<uint8_t>(static_cast<int>(rec.owner) + delta);
      }
      if (rec.first_holder > last_replaced) {
        rec.first_holder =
            static_cast<uint8_t>(static_cast<int>(rec.first_holder) + delta);
      }
      if (rec.last_holder > last_replaced) {
        rec.last_holder =
            static_cast<uint8_t>(static_cast<int>(rec.last_holder) + delta);
      }
    }
  }
}

bool ShardedClusterer::SplitShard(int hot) {
  if (static_cast<int>(shards_.size()) >= kMaxShards) return false;
  double cut = 0;
  if (!ChooseSplitCut(*shards_[hot], &cut)) return false;

  DDC_TRACE_SPAN("engine.rebalance.split");
  DDC_HISTOGRAM_SCOPED("engine.rebalance.split");
  // Freeze the hot shard: its live points (owned and ghost alike) are
  // exactly the union of what the two children must hold, because any point
  // within halo of either child's slab was within halo of the parent slab.
  const std::vector<Migrant> migrants = CollectLive(*shards_[hot]);
  FlatHashMap<PointId, int32_t> migrant_of;
  for (size_t i = 0; i < migrants.size(); ++i) {
    migrant_of[migrants[i].gid] = static_cast<int32_t>(i);
  }

  map_.SplitSlab(hot, cut);
  retired_shard_ids_.push_back(shards_[hot]->id);
  shards_[hot] = MakeShard();
  shards_.insert(shards_.begin() + hot + 1, MakeShard());
  RenumberShards();
  ReRoutePoints(hot, /*replaced=*/1, /*delta=*/+1, migrants, migrant_of);

  // Replay into the children in frozen order; the workers are idle, so this
  // applies synchronously and deterministically.
  int64_t moved = 0;
  for (const Migrant& m : migrants) {
    const PointRec& rec = points_[m.gid];
    const int first = std::max<int>(rec.first_holder, hot);
    const int last = std::min<int>(rec.last_holder, hot + 1);
    DDC_DCHECK(first <= last);
    for (int t = first; t <= last; ++t) {
      ApplyMigration(*shards_[t], m.gid, m.point);
      ++moved;
    }
  }
  DDC_COUNTER_ADD("engine.rebalance.points_migrated", moved);
  DDC_COUNTER_INC("engine.rebalance.splits");
  ++splits_;
  ResetStitcher();
  StartWatchdog();
  return true;
}

bool ShardedClusterer::MergeShards(int left) {
  DDC_CHECK(left >= 0 && left + 1 < static_cast<int>(shards_.size()));

  DDC_TRACE_SPAN("engine.rebalance.merge");
  DDC_HISTOGRAM_SCOPED("engine.rebalance.merge");
  // The merged shard must hold exactly the union of the pair's live points:
  // a point within halo of the merged slab is within halo of one of the old
  // slabs. Points held by both are replayed once.
  std::vector<Migrant> migrants = CollectLive(*shards_[left]);
  FlatHashMap<PointId, int32_t> migrant_of;
  for (size_t i = 0; i < migrants.size(); ++i) {
    migrant_of[migrants[i].gid] = static_cast<int32_t>(i);
  }
  for (const Migrant& m : CollectLive(*shards_[left + 1])) {
    if (migrant_of.Find(m.gid) == nullptr) {
      migrant_of[m.gid] = static_cast<int32_t>(migrants.size());
      migrants.push_back(m);
    }
  }

  map_.MergeSlabs(left);
  retired_shard_ids_.push_back(shards_[left]->id);
  retired_shard_ids_.push_back(shards_[left + 1]->id);
  shards_[left] = MakeShard();
  shards_.erase(shards_.begin() + left + 1);
  RenumberShards();
  ReRoutePoints(left, /*replaced=*/2, /*delta=*/-1, migrants, migrant_of);

  int64_t moved = 0;
  for (const Migrant& m : migrants) {
    DDC_DCHECK(points_[m.gid].first_holder <= left &&
               left <= points_[m.gid].last_holder);
    ApplyMigration(*shards_[left], m.gid, m.point);
    ++moved;
  }
  DDC_COUNTER_ADD("engine.rebalance.points_migrated", moved);
  DDC_COUNTER_INC("engine.rebalance.merges");
  ++merges_;
  ResetStitcher();
  StartWatchdog();
  return true;
}

void ShardedClusterer::ResetStitcher() {
  // The boundary registry is keyed by slab index and edge geometry, both of
  // which just changed; rebuild it from scratch in deterministic
  // (shard, local id) order. is_boundary flags are refreshed against the
  // new map along the way (a no-op for shards whose own edges did not
  // move, but the registry must match the flags exactly either way).
  stitcher_ = BoundaryStitcher(params_.dim, params_.eps);
  for (auto& shard : shards_) {
    shard->deltas.clear();  // Migration-time observer records; superseded.
    const PointId n = static_cast<PointId>(shard->global_of.size());
    for (PointId local = 0; local < n; ++local) {
      const PointId gid = shard->global_of[local];
      const PointId* cur = shard->local_of.Find(gid);
      if (cur == nullptr || *cur != local) continue;
      if (!shard->is_owned[local]) continue;
      const Point& p = shard->clusterer->grid().point(local);
      const bool boundary = map_.NearBoundary(p, shard->index);
      shard->is_boundary[local] = boundary ? 1 : 0;
      if (boundary && shard->clusterer->is_core(local)) {
        stitcher_.AddCore(gid, p, StitchHolders(gid, shard->index, local));
      }
    }
  }
}

// --------------------------------------------------------------------------

std::shared_ptr<const ShardedSnapshot> ShardedClusterer::Compose(
    std::vector<std::shared_ptr<const GridSnapshot>> shards,
    std::shared_ptr<const BoundaryStitcher::LabelTable> table) const {
  // Workers are quiescent (post-drain): the frozen shards, this epoch's
  // stitch table and the routing records make one self-contained epoch.
  std::vector<FlatHashMap<PointId, PointId>> local_of;
  local_of.reserve(shards_.size());
  for (const auto& shard : shards_) local_of.push_back(shard->local_of);
  return std::make_shared<const ShardedSnapshot>(
      epoch(), points_, alive_, std::move(shards), std::move(local_of),
      std::move(table));
}

std::shared_ptr<const ClusterSnapshot> ShardedClusterer::Snapshot() {
  Flush();
  return published_.Load();
}

std::shared_ptr<const ClusterSnapshot> ShardedClusterer::FullSnapshot() {
  Flush();
  std::vector<std::shared_ptr<const GridSnapshot>> fresh;
  for (auto& shard : shards_) {
    fresh.push_back(std::static_pointer_cast<const GridSnapshot>(
        shard->clusterer->FullSnapshot()));
  }
  std::shared_ptr<const BoundaryStitcher::LabelTable> table =
      stitcher_.BuildTable(fresh);
  return Compose(std::move(fresh), std::move(table));
}

BoundaryStitcher::Holders ShardedClusterer::StitchHolders(
    PointId gid, int owner, PointId local) const {
  BoundaryStitcher::Holders at;
  at.owner = owner;
  at.local = local;
  // One hash probe per replica, once per registration; the stitch rebuild
  // reads the frozen shards through these ids.
  const PointRec& rec = points_[gid];
  auto replica = [&](int t) {
    if (t < rec.first_holder || t > rec.last_holder) return kInvalidPoint;
    const PointId* l = shards_[t]->local_of.Find(gid);
    return l != nullptr ? *l : kInvalidPoint;  // Gone: died this epoch.
  };
  DDC_DCHECK(rec.first_holder >= owner - 1 && rec.last_holder <= owner + 1);
  at.below = replica(owner - 1);
  at.above = replica(owner + 1);
  return at;
}

ClusterLabel ShardedClusterer::ClusterIdOf(PointId id) {
  Flush();
  return published_.Load()->LabelOf(id);
}

bool ShardedClusterer::SameCluster(PointId a, PointId b) {
  Flush();
  return published_.Load()->SameCluster(a, b);
}

std::vector<PointId> ShardedClusterer::AlivePoints() const {
  std::vector<PointId> ids;
  ids.reserve(alive_);
  for (PointId gid = 0; gid < static_cast<PointId>(points_.size()); ++gid) {
    if (points_[gid].alive) ids.push_back(gid);
  }
  return ids;
}

std::string ShardedClusterer::ShardMetricName(int shard_id,
                                              const char* field) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "engine.shard.%02d.%s", shard_id, field);
  return std::string(buf);
}

void ShardedClusterer::PublishShardMetrics() {
  Flush();
  MetricsRegistry& registry = MetricsRegistry::Instance();
  static constexpr const char* kShardFields[] = {
      "worker", "slab",    "owned",       "ghosts",  "core",
      "boundary_core", "ops_applied", "batches", "busy_us", "queue_hwm"};
  auto set = [&](int id, const char* field, int64_t value) {
    registry.GetOrCreate(ShardMetricName(id, field), MetricKind::kGauge)
        .Set(value);
  };
  // A shard retired by a split/merge would otherwise keep reporting its
  // last gauge values forever; zero the whole retired set first. Live
  // shards are keyed by stable id, so an id never changes meaning.
  for (const int id : retired_shard_ids_) {
    for (const char* field : kShardFields) set(id, field, 0);
  }
  retired_shard_ids_.clear();
  for (const auto& shard : shards_) {
    const int id = shard->id;
    set(id, "worker", shard->worker);
    set(id, "slab", shard->index);
    set(id, "owned", shard->owned_alive);
    set(id, "ghosts", shard->ghost_alive);
    set(id, "core", shard->core_count);
    set(id, "boundary_core", stitcher_.boundary_count(shard->index));
    set(id, "ops_applied", shard->ops_applied);
    set(id, "batches", shard->batches_applied);
    set(id, "busy_us", static_cast<int64_t>(shard->busy_seconds * 1e6));
    set(id, "queue_hwm", shard->queue_hwm);
  }
  DDC_GAUGE_SET("engine.shards", static_cast<int64_t>(shards_.size()));
  DDC_GAUGE_SET("engine.epoch", static_cast<int64_t>(epoch()));
  DDC_GAUGE_SET("engine.shard_imbalance", last_imbalance_milli_);
}

}  // namespace ddc
