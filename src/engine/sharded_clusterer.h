#ifndef DDC_ENGINE_SHARDED_CLUSTERER_H_
#define DDC_ENGINE_SHARDED_CLUSTERER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "core/clusterer.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/params.h"
#include "engine/shard_map.h"
#include "engine/sharded_snapshot.h"
#include "engine/stitch.h"
#include "engine/thread_pool.h"
#include "telemetry/watchdog.h"

namespace ddc {

/// The multi-threaded engine: Theorem 4's fully-dynamic clusterer, sharded
/// over S spatial slabs with ghost-zone replication and cross-shard cluster
/// stitching, behind the ordinary Clusterer interface.
///
/// Ingest. Each update is routed to the owner slab of its point plus every
/// neighbor slab within the (1+ρ)ε halo (ShardMap::HoldersOf), accumulated
/// into per-shard batches, and published to per-shard MPSC queues consumed
/// by a pinned thread-pool worker — one FullyDynamicClusterer per shard,
/// each applying its stream in submission order. Ghost replicas contribute
/// to their host shard's counts and core statuses (that is what makes every
/// owned point's core status exact) but are *labeled* by their owner shard.
/// The first `warmup` inserts are buffered to pick the spread-maximizing
/// split dimension before any work is forwarded; the buffered prefix then
/// replays in order, so shards=1 reproduces the unsharded engine verbatim —
/// same op stream, same structures, same don't-care decisions.
///
/// Queries. Every Flush that applied work freezes each shard (re-freezing
/// only the cells that changed, see GridSnapshot), rebuilds the stitch
/// table from those frozen labels — a union-find over shard-local component
/// labels, fed by the incrementally maintained boundary core-core edge set
/// (see BoundaryStitcher) — then composes a ShardedSnapshot (the frozen
/// shard snapshots + the stitch label table + routing records) and
/// publishes it by an atomic shared_ptr swap: one immutable epoch, readable
/// lock-free from any number of threads while further updates flow.
/// Query/ClusterIdOf/SameCluster are Flush + a resolve against the
/// published snapshot; CurrentSnapshot() is the wait-free read-side entry
/// point (the latest published epoch, no flush). An owner-core point
/// belongs exactly to its owner's component; a point that is non-core in
/// its owner shard takes the union of the memberships every holding shard
/// computes for it, which restores the cross-boundary attachments a single
/// truncated halo cannot see. The
/// result satisfies the Theorem 3 sandwich at every shard count and equals
/// exact DBSCAN verbatim at rho == 0 (tests/conformance_test.cc).
///
/// Rebalancing. With Options::rebalance.enabled the slab partition is
/// elastic: at every stitch epoch the controller compares per-shard owned
/// occupancy, and when the max/mean imbalance persists it freezes the hot
/// shard (workers are quiescent post-drain), replays its live points into
/// two child clusterers split at the median of the hot dimension, swaps the
/// routing in ShardMap, and re-registers the boundary stitcher — all before
/// the epoch's snapshot is composed. Cold adjacent slabs merge by the
/// symmetric move. In-flight readers never observe a torn routing map:
/// routing only travels inside published ShardedSnapshots, which are
/// self-contained (deep-frozen per-shard snapshots + their own routing
/// records), so a reader on epoch E is untouched when epoch E+1 retires the
/// shards it is reading.
///
/// Threading contract: one ingest thread at a time (like every Clusterer);
/// the engine's workers are internal; snapshot readers are unrestricted.
class ShardedClusterer : public Clusterer {
 public:
  /// Elastic rebalancing: the controller runs at every dirty Flush (i.e.
  /// every stitch epoch), watches per-shard owned occupancy, and reshapes
  /// the slab partition live — splitting the hot shard at the median of its
  /// points along the split dimension, or merging the coldest adjacent pair
  /// — always at a stitch-epoch boundary, so readers only ever observe
  /// whole epochs (the published ShardedSnapshot is self-contained).
  struct RebalanceOptions {
    /// Master switch; everything below is inert when false (the
    /// engine.shard_imbalance gauge is still maintained).
    bool enabled = false;
    /// Split trigger: max/mean owned occupancy must exceed this for
    /// `epochs` consecutive dirty epochs.
    double split_imbalance = 1.35;
    /// Merge trigger: an adjacent pair whose combined owned occupancy is
    /// below merge_fill * mean for `epochs` consecutive dirty epochs is
    /// merged (the merged shard stays below mean, so it does not promptly
    /// re-split).
    double merge_fill = 0.55;
    /// Consecutive dirty epochs a trigger must persist before acting (K).
    int epochs = 3;
    /// Dirty epochs to sit out after any split/merge before acting again.
    int cooldown = 1;
    /// Shard-count ceiling; 0 means min(2 * Options::shards, kMaxShards).
    /// At the ceiling a pending split first merges the coldest adjacent
    /// pair away from the hot shard to free budget.
    int max_shards = 0;
    /// Shard-count floor for merges.
    int min_shards = 1;
    /// No rebalancing below this population (early noise is not signal).
    int64_t min_points = 512;
  };

  struct Options {
    /// Slab count S in [1, kMaxShards].
    int shards = 4;
    /// Worker threads T in [0, kMaxShards]; 0 means one per shard. Shard k
    /// is pinned to worker k % T, preserving per-shard op order.
    int threads = 0;
    /// Updates accumulated per shard before a batch is published.
    int batch = 64;
    /// Inserts buffered before the slab partition is fixed from their
    /// spread. 0 fixes the partition at the first update.
    int warmup = 2048;
    /// Heartbeat watchdog deadline: a worker quiet this long with batches
    /// queued is reported as stalled (stderr + "watchdog.stalls" counter).
    /// 0 disables the monitor thread.
    int64_t watchdog_deadline_ms = 2000;
    /// Live shard split/merge under skew.
    RebalanceOptions rebalance;
  };

  static constexpr int kMaxShards = 64;

  ShardedClusterer(const DbscanParams& params, const Options& options);
  ~ShardedClusterer() override;

  PointId Insert(const Point& p) override;
  void Delete(PointId id) override;

  /// Flush + the published snapshot of the resulting epoch.
  std::shared_ptr<const ClusterSnapshot> Snapshot() override;

  /// Flush + the same epoch composed from per-shard snapshots frozen from
  /// scratch, with a label table built from them (nothing published).
  std::shared_ptr<const ClusterSnapshot> FullSnapshot() override;

  /// The latest published epoch: safe from any thread, concurrently with
  /// ingest and the workers; null before the first Flush.
  std::shared_ptr<const ClusterSnapshot> CurrentSnapshot() const override {
    return published_.Load();
  }

  /// Publishes pending batches, blocks until every shard applied its stream,
  /// folds the boundary core deltas into the stitcher, and — when anything
  /// changed — lets the rebalance controller act, freezes every shard,
  /// rebuilds the stitch label table from the frozen shard labels for a new
  /// epoch, and publishes a fresh ShardedSnapshot.
  void Flush() override;

  std::vector<PointId> AlivePoints() const override;
  const DbscanParams& params() const override { return params_; }
  int64_t size() const override { return alive_; }

  /// Stitched global label of `id`'s cluster: an owner-core point's own
  /// component; for a non-core point, the least label of the clusters
  /// containing it (a DBSCAN border point may belong to several);
  /// kNoCluster for noise or dead ids. Labels are comparable between calls
  /// only within one epoch (i.e. until the next update batch is applied).
  /// Implies Flush.
  ClusterLabel ClusterIdOf(PointId id);

  /// True when some cluster contains both points. Implies Flush.
  bool SameCluster(PointId a, PointId b);

  /// Monotone counter bumped by every stitch rebuild (written by the ingest
  /// thread, readable from any thread — e.g. the watchdog monitor).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Publishes per-shard occupancy/load gauges into the process metrics
  /// registry under ShardMetricName(shard_id, field) — worker, slab (the
  /// shard's current slab index), owned, ghosts, core, boundary_core,
  /// ops_applied, batches, busy_us, queue_hwm — plus the engine.shards
  /// count, engine.epoch and engine.shard_imbalance gauges. Gauges are
  /// keyed by *stable shard id* (ids survive index shifts from rebalancing;
  /// retired shards' gauges are zeroed here, never left stale). Implies
  /// Flush.
  void PublishShardMetrics();

  /// Registry name of one per-shard gauge: "engine.shard.NN.<field>",
  /// keyed by the shard's stable id (zero-padded so registry iteration
  /// orders shards numerically). Ids start equal to slab indices and are
  /// never reused after a split/merge retires a shard.
  static std::string ShardMetricName(int shard_id, const char* field);

  const ShardMap& shard_map() const { return map_; }
  int64_t num_boundary_points() const { return stitcher_.num_points(); }
  int64_t num_boundary_edges() const { return stitcher_.num_edges(); }

  /// Rebalance observability (ingest thread).
  int64_t rebalance_splits() const { return splits_; }
  int64_t rebalance_merges() const { return merges_; }
  /// Last computed max/mean owned-occupancy imbalance, in milli-units
  /// (1500 = 1.5x); 1000 before the first dirty Flush.
  int64_t shard_imbalance_milli() const { return last_imbalance_milli_; }

 private:
  /// One queued update. Inserts carry the point and routing decisions made
  /// once on the ingest thread; every holder receives the same Op.
  struct Op {
    PointId gid;
    bool is_insert;
    bool boundary;  // Insert only: NearBoundary(point, owner).
    uint8_t owner;
    Point point;  // Insert only.
  };

  /// An owner-shard core-status transition of a boundary point, recorded by
  /// the worker and folded into the stitcher at the next Flush.
  struct CoreDelta {
    PointId gid;
    PointId local;  // The owner shard's local id.
    bool now_core;
    Point point;
  };

  struct Shard {
    /// Stable identity for telemetry: assigned monotonically at creation,
    /// never reused. `index` is the current slab position and shifts when
    /// other slabs split or merge; `id` does not.
    int id = 0;
    int index = 0;
    int worker = 0;
    std::unique_ptr<FullyDynamicClusterer> clusterer;

    // Ingest side (caller thread only).
    std::vector<Op> open;

    // The MPSC batch queue: published batches wait in `pending` until the
    // shard's worker swaps the whole list out. A task is submitted only when
    // `pending` goes from empty to non-empty, and each task consumes all of
    // it. queue_hwm is the deepest `pending` has ever been, in batches,
    // sampled at publish time (ingest thread, under mu).
    std::mutex mu;
    std::vector<std::vector<Op>> pending;
    int64_t queue_hwm = 0;

    // Worker-side state. Safe for the caller to read after ThreadPool::
    // Drain(), which establishes the happens-before edge.
    std::vector<PointId> global_of;   // local id -> global id
    std::vector<uint8_t> is_owned;    // local id -> owned here?
    std::vector<uint8_t> is_boundary; // local id -> owned and near an edge?
    FlatHashMap<PointId, PointId> local_of;  // global id -> live local id
    std::vector<CoreDelta> deltas;
    int64_t owned_alive = 0;
    int64_t ghost_alive = 0;
    int64_t core_count = 0;
    int64_t ops_applied = 0;
    int64_t batches_applied = 0;
    double busy_seconds = 0;
    bool dirty = false;  // Applied ops since the last stitch rebuild.
  };

  /// Global per-point record (caller thread only). The snapshot's frozen
  /// routing record, so composing an epoch copies the vector wholesale.
  using PointRec = ShardedSnapshot::GidRec;

  /// A live point frozen out of a shard about to be replaced: the payload
  /// replayed into the successor shard(s).
  struct Migrant {
    PointId gid;
    Point point;
  };

  void RouteInsert(PointId gid, const Point& p);
  void RouteDelete(PointId gid);
  void EnqueueOp(Shard& shard, const Op& op);
  void PublishShard(Shard& shard);
  void ProcessShard(Shard* shard);
  void ApplyOp(Shard& shard, const Op& op);
  /// Fixes the partition from the warmup buffer and replays it in order.
  void FinishWarmup();
  /// Where boundary point `gid` sits for the stitcher: local id `local` in
  /// its owner shard `owner`, plus the live local ids of its replicas.
  BoundaryStitcher::Holders StitchHolders(PointId gid, int owner,
                                          PointId local) const;
  /// Freezes every shard's query state into frozen_. Requires quiescent
  /// workers (call after the drain barrier).
  void FreezeShards();
  /// Rebuilds the stitch label table from frozen_ and bumps the epoch.
  void RebuildLabels();
  /// The ShardedSnapshot of the current epoch over `shards` and `table`.
  std::shared_ptr<const ShardedSnapshot> Compose(
      std::vector<std::shared_ptr<const GridSnapshot>> shards,
      std::shared_ptr<const BoundaryStitcher::LabelTable> table) const;

  // --- Elastic rebalancing (ingest thread, workers quiescent). ---

  /// A fresh shard with a new stable id and the core observer wired up;
  /// index/worker are assigned by RenumberShards.
  std::unique_ptr<Shard> MakeShard();
  /// index = position in shards_, worker = index % threads.
  void RenumberShards();
  /// (Re)creates the heartbeat watchdog with labels naming the current
  /// shard-to-worker pinning.
  void StartWatchdog();
  /// The rebalance controller: updates the imbalance gauge and trigger
  /// streaks, and performs at most one split or merge. Returns true when
  /// the topology changed (caller must RebuildLabels before publishing).
  bool MaybeRebalance();
  /// Splits slab `hot` at the median of its owned points; false when no
  /// admissible cut exists (slab too narrow or too one-sided).
  bool SplitShard(int hot);
  /// Merges slabs `left` and `left + 1`.
  bool MergeShards(int left);
  /// Median-of-owned-points cut for `shard`, clamped to the 2·halo edge
  /// margins; false when the result is inadmissible or useless.
  bool ChooseSplitCut(const Shard& shard, double* cut) const;
  /// Every live point held by `shard`, in deterministic local-id order.
  std::vector<Migrant> CollectLive(const Shard& shard) const;
  /// Applies one migrated insert directly (workers quiescent).
  void ApplyMigration(Shard& shard, PointId gid, const Point& p);
  /// Recomputes routing records after the slab set changed around position
  /// `pos`: points held by the replaced shard(s) are re-routed from their
  /// coordinates (found via `migrant_of`), everything else index-shifts by
  /// `delta` above the affected range.
  void ReRoutePoints(int pos, int replaced, int delta,
                     const std::vector<Migrant>& migrants,
                     const FlatHashMap<PointId, int32_t>& migrant_of);
  /// Rebuilds the boundary stitcher from scratch against the current
  /// partition: refreshes is_boundary flags and re-registers every live
  /// owned boundary core point (deterministic order).
  void ResetStitcher();

  DbscanParams params_;
  Options options_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  /// Heartbeat monitor over the pool workers; destroyed before the pool.
  std::unique_ptr<Watchdog> watchdog_;

  std::vector<PointRec> points_;
  int64_t alive_ = 0;

  /// Warmup buffer: the op stream before the partition is fixed.
  std::vector<Op> warmup_buffer_;
  int64_t warmup_inserts_ = 0;

  BoundaryStitcher stitcher_;
  std::atomic<uint64_t> epoch_{0};
  /// The per-shard snapshots of the current epoch (ingest thread), aligned
  /// with shards_ from FreezeShards until the next topology change.
  std::vector<std::shared_ptr<const GridSnapshot>> frozen_;

  /// Rebalance controller state (ingest thread only).
  int next_shard_id_ = 0;
  std::vector<int> retired_shard_ids_;  // Gauges to zero at next publish.
  int split_streak_ = 0;
  int merge_streak_ = 0;
  int cooldown_left_ = 0;
  int64_t splits_ = 0;
  int64_t merges_ = 0;
  int64_t last_imbalance_milli_ = 1000;

  /// The read side: the latest composed epoch, swapped in by Flush and
  /// loaded by readers (see SharedPtrSlot). Replaces
  /// the former reader-writer gate on the query path — no lock is ever
  /// held while a reader resolves labels.
  SharedPtrSlot<const ShardedSnapshot> published_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_SHARDED_CLUSTERER_H_
