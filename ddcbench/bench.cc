// ddcbench — the repository's benchmark: four steady-state workloads driven
// through the library's public calls, with exact per-call quantiles and an
// optional layer trace. See README.md next to this file for the workloads,
// the metrics and how each layer metric maps onto an end-to-end one.
//
//   ddcbench --workload churn|serve|sharded|durable --seed N --seconds S
//            --trace 0|1 --work-dir DIR
//
// Every run: generate the stream (untimed); five times set up (the median
// is setup_s), warm up and measure one segment of a closed loop at a
// constant alive count; then check the outputs. The last stdout line is the
// result JSON.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/random.h"
#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/method_registry.h"
#include "core/static_dbscan.h"
#include "engine/sharded_clusterer.h"
#include "persist/recovery.h"
#include "persist/snapshot_io.h"
#include "persist/wal.h"
#include "scenario/scenario.h"
#include "telemetry/metrics.h"
#include "telemetry/resource.h"

namespace ddc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Clocks and process probes.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

int64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0, pages_resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  return got == 2 ? static_cast<int64_t>(pages_resident) * 4096 : 0;
}

// Host-drift probe: a dependent-load chase over a 128 MiB table, larger than
// the last-level cache, so its time tracks the memory system the workloads
// share with the rest of the host. Informational only.
double HostProbeMs() {
  constexpr uint32_t kBits = 25;  // 2^25 uint32 entries = 128 MiB.
  constexpr uint32_t kMask = (1u << kBits) - 1;
  std::vector<uint32_t> next(size_t{1} << kBits);
  // A full-period LCG step mod 2^25 (a % 4 == 1, c odd) is one cycle over
  // every entry, and its strides defeat the hardware prefetchers.
  for (uint32_t i = 0; i <= kMask; ++i) next[i] = (i * 1664525u + 1013904223u) & kMask;
  uint32_t cur = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < (1 << 20); ++i) cur = next[cur];
  const int64_t t1 = NowNs();
  DDC_CHECK(cur <= kMask);
  return (t1 - t0) / 1e6;
}

// ---------------------------------------------------------------------------
// Exact order statistics over raw samples (nearest-rank definition).

template <typename T>
double ExactQuantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return static_cast<double>(v[rank]);
}

// A latency sample in ns; one call never takes the 4.29 s that saturates.
uint32_t Sample(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A run's latency quantile. A shared host slows the program for stretches
// of a second or more and never speeds it up; how much of a run such
// stretches cover varies from run to run, so a quantile over the whole run
// (or a median over its parts) jumps between the calm and the slowed
// level. So the samples, in time order, are cut into at most
// kLatencyChunks chunks of at least kChunkSamples (a chunk's p99 then has
// 50 samples beyond it), and the result is the mean of the chunks' exact
// quantiles over the calmest kCalmShare of the chunks: the lowest. A change
// that slows the program still raises it, since it raises every chunk.
// With fewer than two chunks it is the exact quantile of the run.
constexpr size_t kLatencyChunks = 1000;
constexpr size_t kChunkSamples = 5000;
constexpr double kCalmShare = 0.02;

double RunQuantile(const std::vector<uint32_t>& v, double q) {
  const size_t chunks = std::min(kLatencyChunks, v.size() / kChunkSamples);
  if (chunks < 2) return ExactQuantile(v, q);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    per_chunk.push_back(ExactQuantile(
        std::vector<uint32_t>(v.begin() + v.size() * c / chunks,
                              v.begin() + v.size() * (c + 1) / chunks),
        q));
  }
  std::sort(per_chunk.begin(), per_chunk.end());
  const size_t calm = static_cast<size_t>(
      std::ceil(kCalmShare * static_cast<double>(chunks)));
  double sum = 0;
  for (size_t c = 0; c < calm; ++c) sum += per_chunk[c];
  return sum / static_cast<double>(calm);
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadDef {
  const char* name;
  const char* scenario;  // src/scenario generator
  const char* method;    // MakeMethod spec
  int64_t alive;         // constant alive population of the measured phase
  int64_t query_every;   // serve: a C-group-by query every this many updates
  int64_t flush_every;   // sharded: Flush() every this many updates
  bool durable;          // WAL + periodic snapshots + recovery
  int engine_threads;    // worker threads of the sharded engine
  int64_t instance_points;  // points per generator instance (0 = one)
};

// Points per seed-spreader instance. One instance restarts its walk
// Poisson(10) times, so a window over one instance holds a handful of walks
// whose lengths, and so whose densities and per-update costs, vary widely
// from seed to seed; concatenating instances puts hundreds of walks in a
// window.
constexpr int64_t kSpreaderInstance = 25000;

constexpr WorkloadDef kWorkloads[] = {
    {"churn", "sliding-window", "double-approx", 2000000, 0, 0, false, 0,
     kSpreaderInstance},
    {"serve", "sliding-window", "double-approx", 200000, 200, 0, false, 0,
     kSpreaderInstance},
    {"sharded", "drift", "sharded-double-approx:shards=4,threads=3", 200000,
     0, 10000, false, 3, 0},
    {"durable", "sliding-window", "double-approx", 200000, 0, 0, true, 0,
     kSpreaderInstance},
};

constexpr int kDim = 3;
constexpr int kQueryMin = 32;
constexpr int kQueryMax = 128;
constexpr int kSetupRepeats = 5;
constexpr int kCheckQueries = 20000;
constexpr int kRecoverRepeats = 2;  // per warm-up
constexpr int kRateWindows = 20;
constexpr int64_t kGroupCommitRecords = 1024;
constexpr int64_t kSnapshotEvery = 250000;
constexpr int64_t kOracleAlive = 20000;
constexpr int64_t kSpanCapacity = int64_t{1} << 21;

// The replayed input: the generator's points in insertion order, packed.
// The measured phase walks them cyclically (see Feeder), so a run never
// runs out of input however fast the host is.
struct Stream {
  std::vector<double> coords;  // kDim per point
  int64_t points = 0;
  int64_t window = 0;

  Point At(int64_t k) const {
    const double* c = &coords[static_cast<size_t>(k % points) * kDim];
    Point p;
    for (int i = 0; i < kDim; ++i) p[i] = c[i];
    return p;
  }
};

// One generator instance: `points` inserts over a FIFO window, each insert
// past the window followed by the expiry of the oldest point, so
// 2 * points - window updates in all.
std::string ScenarioSpecFor(const WorkloadDef& def, int64_t window,
                            int64_t points) {
  return std::string(def.scenario) + ":n=" + std::to_string(2 * points - window) +
         ",window=" + std::to_string(window) + ",qevery=0";
}

// Appends one generated instance to `s`, after checking that its op stream
// is the FIFO schedule the feeder replays (insert k, then expire insertion
// k - window).
void AppendInstance(const WorkloadDef& def, int64_t window, int64_t points,
                    uint64_t seed, Stream* s) {
  window = std::min(window, points);
  Workload w = BuildScenarioWorkload(ScenarioSpecFor(def, window, points), seed);
  DDC_CHECK(w.dim == kDim);
  DDC_CHECK(static_cast<int64_t>(w.points.size()) == points);
  size_t j = 0;
  for (int64_t inserted = 0; inserted < points; ++inserted) {
    DDC_CHECK(j < w.ops.size() && w.ops[j].type == Operation::Type::kInsert &&
              w.ops[j].target == inserted);
    ++j;
    if (inserted >= window) {
      DDC_CHECK(j < w.ops.size() && w.ops[j].type == Operation::Type::kDelete &&
                w.ops[j].target == inserted - window);
      ++j;
    }
  }
  DDC_CHECK(j == w.ops.size());
  for (const Point& p : w.points) {
    for (int d = 0; d < kDim; ++d) s->coords.push_back(p[d]);
  }
  s->points += points;
}

// The stream of a workload: `points` points in instances of
// def.instance_points (0 = one instance), each from its own seed derived
// from `seed`, replayed through a FIFO window of `window` points.
Stream Generate(const WorkloadDef& def, int64_t window, int64_t points,
                uint64_t seed) {
  Stream s;
  s.window = window;
  s.coords.reserve(static_cast<size_t>(points) * kDim);
  const int64_t per = def.instance_points > 0 ? def.instance_points : points;
  Rng seeds(seed);
  for (int64_t done = 0; done < points; done += per) {
    AppendInstance(def, window, std::min(per, points - done), seeds.Next(), &s);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Layer trace: spans recorded by the benchmark around each public call,
// kept in memory and written out at exit.

enum Layer : uint16_t {
  kPhase,          // the traced measured phase (root)
  kInsert,         // Clusterer::Insert
  kDelete,         // Clusterer::Delete
  kSnapshot,       // Clusterer::Snapshot
  kSnapshotQuery,  // ClusterSnapshot::Query
  kFlush,          // Clusterer::Flush
  kWalAppend,      // WalWriter::Append
  kWalSync,        // WalWriter::Sync
  kSnapshotSave,   // SaveSnapshot
  kChecks,         // the check queries after the measured phase (root)
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "bench.phase",        "clusterer.insert", "clusterer.delete",
    "clusterer.snapshot", "snapshot.query",   "clusterer.flush",
    "wal.append",         "wal.sync",         "persist.snapshot_save",
    "bench.checks"};

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  int64_t op;      // update/query sequence number: spans of one op share it
  int32_t parent;  // index of the enclosing span, -1 for the root
  Layer layer;
};

class SpanLog {
 public:
  void Reserve(int64_t n) { spans_.reserve(static_cast<size_t>(n)); }
  // Leaves room for the spans of one more loop iteration.
  bool full() const { return spans_.size() + 64 >= spans_.capacity(); }
  int32_t Add(Layer layer, int32_t parent, int64_t op, int64_t start,
              int64_t end) {
    spans_.push_back(Span{start, end, op, parent, layer});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void SetEnd(int32_t idx, int64_t end) { spans_[idx].end_ns = end; }
  const std::vector<Span>& spans() const { return spans_; }

  struct LayerStats {
    int64_t count = 0;
    double self_s = 0;
    std::vector<int64_t> durations_ns;
  };

  // Per-layer self time (duration minus the part children cover) and raw
  // durations.
  std::vector<LayerStats> Summarize() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns);
    }
    std::vector<LayerStats> out(kNumLayers);
    for (size_t i = 0; i < spans_.size(); ++i) {
      LayerStats& ls = out[spans_[i].layer];
      ++ls.count;
      ls.self_s += self[i] * 1e-9;
      ls.durations_ns.push_back(spans_[i].end_ns - spans_[i].start_ns);
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\top\n");
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRId64 "\n", i,
                   kLayerNames[s.layer], s.start_ns - base, s.end_ns - base,
                   s.parent, s.op);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output checks.

// A C-group-by answer over Q (all alive) is right when every id of Q comes
// back, no foreign id does, and no id is both noise and in a group.
bool QueryResultOk(const std::vector<PointId>& q, const CGroupByResult& r) {
  std::vector<PointId> sorted_q(q);
  std::sort(sorted_q.begin(), sorted_q.end());
  std::vector<char> seen(sorted_q.size(), 0);
  auto mark = [&](PointId id, char how) {
    auto it = std::lower_bound(sorted_q.begin(), sorted_q.end(), id);
    if (it == sorted_q.end() || *it != id) return false;
    char& s = seen[it - sorted_q.begin()];
    if ((s | how) == 3) return false;  // both noise and grouped
    s |= how;
    return true;
  };
  for (const auto& g : r.groups) {
    for (PointId id : g) {
      if (!mark(id, 1)) return false;
    }
  }
  for (PointId id : r.noise) {
    if (!mark(id, 2)) return false;
  }
  return std::all_of(seen.begin(), seen.end(), [](char s) { return s != 0; });
}

CGroupByResult Canonical(CGroupByResult r) {
  r.Canonicalize();
  return r;
}

// ---------------------------------------------------------------------------
// The feeder: one clusterer fed a FIFO window over the stream.
//
// Insertion k (k >= 0) inserts stream point k mod N; from k = window on, it
// is followed by the expiry of insertion k - window — exactly the scenario
// generator's schedule, continued cyclically. The alive count is `window`
// after every expiry, so every measured sample sees the same state size.

struct PhaseResult {
  double wall_s = 0;
  double cpu_s = 0;
  int64_t ops = 0;
  int64_t updates = 0;
  std::vector<double> window_rates;
  std::vector<uint32_t> insert_ns, delete_ns, query_ns;  // per-call latency

  // Adds a later segment of the same phase.
  void Append(const PhaseResult& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    ops += o.ops;
    updates += o.updates;
    window_rates.insert(window_rates.end(), o.window_rates.begin(),
                        o.window_rates.end());
    insert_ns.insert(insert_ns.end(), o.insert_ns.begin(), o.insert_ns.end());
    delete_ns.insert(delete_ns.end(), o.delete_ns.begin(), o.delete_ns.end());
    query_ns.insert(query_ns.end(), o.query_ns.begin(), o.query_ns.end());
  }
};

class Feeder {
 public:
  Feeder(const WorkloadDef& def, const Stream& stream, std::string work_dir,
         uint64_t seed)
      : def_(def),
        stream_(stream),
        params_(PaperParams(kDim)),
        work_dir_(std::move(work_dir)),
        ring_(static_cast<size_t>(stream.window + 1), kInvalidPoint),
        query_rng_(seed * 0x9e3779b97f4a7c15ULL + 7) {}

  ~Feeder() {
    if (wal_ != nullptr) wal_->Close();
  }

  std::string wal_dir() const { return work_dir_ + "/wal-" + def_.name; }
  Clusterer& clusterer() { return *clusterer_; }
  int64_t failures() const { return failures_; }
  int64_t checks() const { return checks_; }
  int64_t check_query_ids() const { return check_query_ids_; }

  // Construct and fill to the steady window. Returns seconds taken.
  double Setup() {
    if (wal_ != nullptr) wal_->Close();
    wal_.reset();
    clusterer_.reset();
    step_ = 0;
    next_point_ = 0;
    ins_slot_ = 0;
    updates_ = 0;
    since_save_ = 0;
    unsynced_ = 0;
    if (def_.durable) {
      std::error_code ec;
      fs::remove_all(wal_dir(), ec);
      DDC_CHECK(!ec);
    }
    const int64_t t0 = NowNs();
    clusterer_ = MakeMethod(def_.method, params_);
    if (def_.durable) {
      WalWriter::Options opts;
      opts.sync_every = 0;  // group commit is driven here, one Sync per 1024
      opts.segment_bytes = int64_t{64} << 20;
      wal_ = std::make_unique<WalWriter>(wal_dir(), opts);
      DDC_CHECK(wal_->ok());
      RunMeta meta;
      meta.method = def_.method;
      meta.scenario = def_.scenario;
      meta.params = EffectiveParams(def_.method, params_);
      std::string error;
      if (!WriteRunMeta(wal_dir(), meta, &error)) {
        std::fprintf(stderr, "ddcbench: %s\n", error.c_str());
        DDC_CHECK(false);
      }
    }
    SpanLog* none = nullptr;
    while (step_ < stream_.window) InsertStep<false>(nullptr, none, 0);
    clusterer_->Flush();
    return (NowNs() - t0) * 1e-9;
  }

  // Untimed churn after setup, so the measured phase starts from a window
  // that churn, not the initial fill, put together. Queries are left out.
  void WarmUp(int64_t updates) {
    SpanLog* none = nullptr;
    const int64_t stop = updates_ + updates;
    while (updates_ < stop) {
      InsertStep<false>(nullptr, none, 0);
      DeleteStep<false>(nullptr, none, 0);
      if (def_.flush_every > 0 && updates_ % def_.flush_every < 2) {
        FlushStep<false>(none, 0);
      }
      if (def_.durable && since_save_ >= kSnapshotEvery) SaveStep<false>(none, 0);
    }
    clusterer_->Flush();
    if (def_.query_every > 0) {
      PhaseResult scratch;
      QueryStep<false>(&scratch, none, 0);
    }
  }

  // The closed-loop measured phase: one caller, each call waits for its
  // result, until `seconds` have passed (for sharded, until the first flush
  // after that; for durable, the first snapshot save). Throughput is taken
  // per window of about seconds / kRateWindows, closed at those points.
  // With `spans`, records one span per public call instead of latency
  // samples.
  template <bool kTraced>
  PhaseResult Measure(double seconds, SpanLog* spans) {
    PhaseResult r;
    const int64_t reserve = static_cast<int64_t>(seconds * 4e6) + 1024;
    if (!kTraced) {
      r.insert_ns.reserve(reserve);
      r.delete_ns.reserve(reserve);
      if (def_.query_every > 0) r.query_ns.reserve(reserve / def_.query_every + 16);
    }
    const int64_t updates0 = updates_;
    const double cpu0 = CpuSeconds();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t window_ns = (end - start) / kRateWindows;
    int32_t root = -1;
    if (kTraced) root = spans->Add(kPhase, -1, 0, start, start);
    int64_t win_start = start, win_ops = 0;
    int64_t now = start;
    for (;;) {
      // One insertion, its expiry, and whatever the schedule hangs on them.
      now = InsertStep<kTraced>(&r, spans, root);
      now = DeleteStep<kTraced>(&r, spans, root, now);
      win_ops += 2;
      bool boundary = true;
      if (def_.query_every > 0 && updates_ % def_.query_every < 2) {
        now = QueryStep<kTraced>(&r, spans, root);
        ++win_ops;
      }
      if (def_.flush_every > 0) {
        boundary = updates_ % def_.flush_every < 2;
        if (boundary) now = FlushStep<kTraced>(spans, root);
      }
      if (def_.durable) {
        // A rate window spans whole snapshot periods, so each one carries
        // its share of the save cost.
        boundary = since_save_ >= kSnapshotEvery;
        if (boundary) now = SaveStep<kTraced>(spans, root);
      }
      if (kTraced && spans->full()) {
        // The span buffer is the traced phase's other bound; the engine
        // still applies what was enqueued inside it.
        if (def_.flush_every > 0 && !boundary) now = FlushStep<kTraced>(spans, root);
        break;
      }
      if (!boundary) continue;
      if (now - win_start >= window_ns) {
        r.window_rates.push_back(win_ops / ((now - win_start) * 1e-9));
        r.ops += win_ops;
        win_start = now;
        win_ops = 0;
      }
      if (now >= end) break;
      if (!kTraced && static_cast<int64_t>(r.insert_ns.size()) >= reserve) break;
    }
    r.ops += win_ops;
    if (win_ops > 0 && now > win_start && r.window_rates.empty()) {
      r.window_rates.push_back(win_ops / ((now - win_start) * 1e-9));
    }
    r.wall_s = (now - start) * 1e-9;
    r.cpu_s = CpuSeconds() - cpu0;
    r.updates = updates_ - updates0;
    if (kTraced) spans->SetEnd(root, now);
    return r;
  }

  // Query checks after the measured phase: `n` C-group-by queries over
  // random alive ids through Clusterer::Query, each answer checked. With
  // `spans`, each query is timed as Snapshot() then ClusterSnapshot::Query,
  // one span each: the query layer of the per-layer metrics.
  void CheckQueries(int n, SpanLog* spans) {
    std::vector<PointId> q;
    int32_t root = -1;
    if (spans != nullptr) {
      spans->Reserve(2 * static_cast<int64_t>(n) + 1);
      root = spans->Add(kChecks, -1, 0, NowNs(), 0);
    }
    for (int i = 0; i < n; ++i) {
      DrawQuery(&q);
      check_query_ids_ += static_cast<int64_t>(q.size());
      CGroupByResult res;
      if (spans != nullptr) {
        const int64_t t0 = NowNs();
        const std::shared_ptr<const ClusterSnapshot> snap = clusterer_->Snapshot();
        const int64_t tm = NowNs();
        res = snap->Query(q);
        spans->Add(kSnapshot, root, i, t0, tm);
        spans->Add(kSnapshotQuery, root, i, tm, NowNs());
      } else {
        res = clusterer_->Query(q);
      }
      Check(QueryResultOk(q, res), "check query answer");
    }
    if (spans != nullptr) spans->SetEnd(root, NowNs());
  }

  void Check(bool ok, const char* what) {
    ++checks_;
    if (!ok) {
      ++failures_;
      if (failures_ <= 5) std::fprintf(stderr, "ddcbench: check failed: %s\n", what);
    }
  }

  // Durable: RecoverFromDir into a fresh clusterer, checked against the
  // live one. The log is group-committed first (and closed when `close`).
  // Returns {seconds, replayed ops}.
  std::pair<double, int64_t> RecoverAndCheck(bool close) {
    DDC_CHECK(wal_ != nullptr);
    Check(close ? wal_->Close() : wal_->Sync(), "wal sync before recovery");
    unsynced_ = 0;
    const int64_t t0 = NowNs();
    RecoveryResult rec;
    RunMeta meta;
    std::string error;
    const bool ok = RecoverFromDir(wal_dir(), &rec, &meta, &error);
    const double secs = (NowNs() - t0) * 1e-9;
    Check(ok, "RecoverFromDir");
    if (!ok) {
      std::fprintf(stderr, "ddcbench: recovery: %s\n", error.c_str());
      return {secs, 0};
    }
    Check(rec.clusterer->size() == clusterer_->size(), "recovered size");
    Check(Canonical(rec.clusterer->QueryAll()) == Canonical(clusterer_->QueryAll()),
          "recovered QueryAll equals live QueryAll");
    return {secs, rec.wal.records};
  }

  // Non-durable: save the current snapshot and load it back (the query
  // side's cold start) `repeats` times, each load checked against the live
  // snapshot. Returns the load seconds.
  std::vector<double> SnapshotRoundTrips(int repeats) {
    const std::string dir = work_dir_ + "/snap-" + def_.name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    DDC_CHECK(!ec);
    const std::string path = dir + "/" + SnapshotFileName(0);
    const std::shared_ptr<const ClusterSnapshot> live = clusterer_->Snapshot();
    std::string error;
    const bool saved = SaveSnapshot(*live, params_, 0, path, &error);
    Check(saved, "SaveSnapshot");
    if (!saved) return {};
    const std::vector<PointId> all = clusterer_->AlivePoints();
    const CGroupByResult expected = Canonical(live->Query(all));
    std::vector<double> secs;
    for (int i = 0; i < repeats; ++i) {
      const int64_t t0 = NowNs();
      std::shared_ptr<const ClusterSnapshot> loaded =
          LoadSnapshot(path, nullptr, &error);
      secs.push_back((NowNs() - t0) * 1e-9);
      Check(loaded != nullptr, "LoadSnapshot");
      if (loaded == nullptr) break;
      Check(loaded->size() == live->size(), "loaded snapshot size");
      Check(Canonical(loaded->Query(all)) == expected,
            "loaded snapshot QueryAll equals live");
    }
    fs::remove_all(dir, ec);
    return secs;
  }

 private:
  PointId RingAt(int64_t k) const {
    return ring_[static_cast<size_t>(k % static_cast<int64_t>(ring_.size()))];
  }

  Point NextPoint() {
    const double* c = &stream_.coords[static_cast<size_t>(next_point_) * kDim];
    if (++next_point_ == stream_.points) next_point_ = 0;
    Point p;
    for (int i = 0; i < kDim; ++i) p[i] = c[i];
    return p;
  }

  template <bool kTraced>
  int64_t InsertStep(PhaseResult* r, SpanLog* spans, int32_t root) {
    const Point p = NextPoint();
    const int64_t t0 = NowNs();
    const PointId id = clusterer_->Insert(p);
    int64_t t1 = NowNs();
    if (kTraced) spans->Add(kInsert, root, updates_, t0, t1);
    if (wal_ != nullptr) {
      WalOp op;
      op.type = WalOp::Type::kInsert;
      op.id = id;
      op.dim = kDim;
      op.point = p;
      t1 = LogStep<kTraced>(op, spans, root, t1);
    }
    ring_[ins_slot_] = id;
    if (++ins_slot_ == ring_.size()) ins_slot_ = 0;
    ++step_;
    ++updates_;
    ++since_save_;
    if (!kTraced && r != nullptr) {
      r->insert_ns.push_back(Sample(t1 - t0));
    }
    return t1;
  }

  // Traced, the expiry is timed from `prev_end`, the end of the insertion
  // just before it: calls within one step run back to back, and one clock
  // read (about 34 ns on a KVM guest) less per step keeps the trace close
  // to the untraced loop.
  template <bool kTraced>
  int64_t DeleteStep(PhaseResult* r, SpanLog* spans, int32_t root,
                     int64_t prev_end = 0) {
    // The ring holds window + 1 slots, so the slot after the newest
    // insertion holds insertion step - 1 - window, the oldest alive one.
    const PointId id = ring_[ins_slot_];
    const int64_t t0 = kTraced ? prev_end : NowNs();
    clusterer_->Delete(id);
    int64_t t1 = NowNs();
    if (kTraced) spans->Add(kDelete, root, updates_, t0, t1);
    if (wal_ != nullptr) {
      WalOp op;
      op.type = WalOp::Type::kDelete;
      op.id = id;
      t1 = LogStep<kTraced>(op, spans, root, t1);
    }
    ++updates_;
    ++since_save_;
    if (!kTraced && r != nullptr) {
      r->delete_ns.push_back(Sample(t1 - t0));
    }
    return t1;
  }

  // WAL append plus the group commit it completes; returns the end time.
  template <bool kTraced>
  int64_t LogStep(WalOp& op, SpanLog* spans, int32_t root, int64_t t) {
    const bool appended = wal_->Append(op);
    int64_t t1 = NowNs();
    if (kTraced) spans->Add(kWalAppend, root, updates_, t, t1);
    if (!appended) Check(false, "wal append");
    if (++unsynced_ >= kGroupCommitRecords) {
      unsynced_ = 0;
      const bool synced = wal_->Sync();
      const int64_t t2 = NowNs();
      if (kTraced) spans->Add(kWalSync, root, updates_, t1, t2);
      if (!synced) Check(false, "wal sync");
      t1 = t2;
    }
    return t1;
  }

  template <bool kTraced>
  int64_t QueryStep(PhaseResult* r, SpanLog* spans, int32_t root) {
    DrawQuery(&query_);
    CGroupByResult res;
    int64_t t1 = 0;
    const int64_t t0 = NowNs();
    if (kTraced) {
      const std::shared_ptr<const ClusterSnapshot> snap = clusterer_->Snapshot();
      const int64_t tm = NowNs();
      res = snap->Query(query_);
      t1 = NowNs();
      spans->Add(kSnapshot, root, updates_, t0, tm);
      spans->Add(kSnapshotQuery, root, updates_, tm, t1);
    } else {
      res = clusterer_->Query(query_);
      t1 = NowNs();
      r->query_ns.push_back(Sample(t1 - t0));
    }
    Check(QueryResultOk(query_, res), "measured query answer");
    return t1;
  }

  template <bool kTraced>
  int64_t FlushStep(SpanLog* spans, int32_t root) {
    const int64_t t0 = NowNs();
    clusterer_->Flush();
    const int64_t t1 = NowNs();
    if (kTraced) spans->Add(kFlush, root, updates_, t0, t1);
    return t1;
  }

  // Durable: group-commit the log, freeze a snapshot and save it.
  template <bool kTraced>
  int64_t SaveStep(SpanLog* spans, int32_t root) {
    since_save_ = 0;
    const int64_t t0 = NowNs();
    const bool synced = wal_->Sync();
    const int64_t t1 = NowNs();
    unsynced_ = 0;
    const std::shared_ptr<const ClusterSnapshot> snap = clusterer_->Snapshot();
    const int64_t t2 = NowNs();
    const uint64_t last_seq = wal_->next_seq() - 1;
    std::string error;
    const bool saved = SaveSnapshot(*snap, params_, last_seq,
                                    wal_dir() + "/" + SnapshotFileName(last_seq),
                                    &error);
    const int64_t t3 = NowNs();
    if (kTraced) {
      spans->Add(kWalSync, root, updates_, t0, t1);
      spans->Add(kSnapshot, root, updates_, t1, t2);
      spans->Add(kSnapshotSave, root, updates_, t2, t3);
    }
    if (!synced) Check(false, "wal sync before snapshot");
    if (!saved) {
      std::fprintf(stderr, "ddcbench: %s\n", error.c_str());
      Check(false, "SaveSnapshot");
    }
    // Keep the newest two snapshots, as an operator would, so the disk
    // footprint does not grow with the run.
    std::vector<SnapshotFileInfo> files;
    if (ListSnapshots(wal_dir(), &files, &error)) {
      for (size_t i = 0; i + 2 < files.size(); ++i) {
        std::error_code ec;
        fs::remove(files[i].path, ec);
      }
    }
    return NowNs();
  }

  // |Q| ~ U[kQueryMin, kQueryMax] distinct alive ids, uniform over the window.
  void DrawQuery(std::vector<PointId>* q) {
    q->clear();
    const int want = static_cast<int>(query_rng_.NextInRange(kQueryMin, kQueryMax));
    const int64_t oldest = step_ - stream_.window;
    while (static_cast<int>(q->size()) < want) {
      const PointId id = RingAt(oldest + static_cast<int64_t>(
                                             query_rng_.NextBelow(stream_.window)));
      if (std::find(q->begin(), q->end(), id) == q->end()) q->push_back(id);
    }
  }

  const WorkloadDef& def_;
  const Stream& stream_;
  DbscanParams params_;
  std::string work_dir_;
  std::unique_ptr<Clusterer> clusterer_;
  std::unique_ptr<WalWriter> wal_;
  std::vector<PointId> ring_;  // ids of the last window + 1 insertions
  Rng query_rng_;
  std::vector<PointId> query_;
  int64_t step_ = 0;        // insertions so far
  int64_t next_point_ = 0;  // stream index of the next insertion
  size_t ins_slot_ = 0;     // ring slot of the next insertion
  int64_t updates_ = 0;     // inserts + deletes so far
  int64_t since_save_ = 0;  // updates since the last durable snapshot
  int64_t unsynced_ = 0;    // WAL records since the last Sync
  int64_t check_query_ids_ = 0;  // ids asked for by the check queries
  int64_t checks_ = 0;
  int64_t failures_ = 0;
};

// The Theorem 3 sandwich on a small instance of the workload's generator and
// method: exact DBSCAN at eps must refine the answer, which must refine exact
// DBSCAN at (1 + rho) eps.
bool SandwichOracle(const WorkloadDef& def, uint64_t seed, std::string* why) {
  const int64_t window = kOracleAlive;
  const int64_t points = 2 * kOracleAlive;
  const Stream s = Generate(def, window, points, seed);
  const DbscanParams params = PaperParams(kDim);
  std::unique_ptr<Clusterer> c = MakeMethod(def.method, params);
  std::vector<PointId> ids(static_cast<size_t>(points), kInvalidPoint);
  for (int64_t k = 0; k < points; ++k) {
    ids[k] = c->Insert(s.At(k));
    if (k >= window) c->Delete(ids[k - window]);
  }
  std::vector<Point> alive_points;
  std::vector<PointId> alive_ids;
  for (int64_t k = points - window; k < points; ++k) {
    alive_points.push_back(s.At(k));
    alive_ids.push_back(ids[k]);
  }
  DbscanParams upper_params = params;
  upper_params.eps = params.eps * (1 + params.rho);
  const CGroupByResult lower = StaticDbscan(alive_points, params).ToGroups(alive_ids);
  const CGroupByResult upper =
      StaticDbscan(alive_points, upper_params).ToGroups(alive_ids);
  const CGroupByResult reported = Canonical(c->QueryAll());
  return c->size() == window && CheckSandwich(lower, reported, upper, why);
}

// ---------------------------------------------------------------------------
// Metrics.

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(), v, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

struct RegistryDelta {
  std::map<std::string, MetricSample> by_name;

  int64_t Count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.value;
  }
  double HistSumS(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.hist.sum_ns * 1e-9;
  }
  int64_t SumPrefixed(const std::string& prefix, const std::string& suffix) const {
    int64_t sum = 0;
    for (auto it = by_name.lower_bound(prefix);
         it != by_name.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      if (it->first.size() >= suffix.size() &&
          it->first.compare(it->first.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
        sum += it->second.value;
      }
    }
    return sum;
  }
  int64_t MaxPrefixed(const std::string& prefix, const std::string& suffix) const {
    int64_t mx = 0;
    for (const auto& [name, s] : by_name) {
      if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        mx = std::max(mx, s.value);
      }
    }
    return mx;
  }
};

RegistryDelta ToMap(const std::vector<MetricSample>& samples) {
  RegistryDelta d;
  for (const MetricSample& s : samples) d.by_name[s.name] = s;
  return d;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PublishEngineGauges(Clusterer& c) {
  if (auto* sharded = dynamic_cast<ShardedClusterer*>(&c)) {
    sharded->PublishShardMetrics();
  }
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const std::string work_dir = flags.GetString("work-dir", ".bench_build");
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) def = &w;
  }
  if (def == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: ddcbench --workload churn|serve|sharded|durable "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  DDC_CHECK(!ec);

  const double probe_before_ms = HostProbeMs();

  // 1. Generate (untimed by setup_s), then drop the generator's copy so the
  // high-water mark below starts from the replay arrays alone.
  const int64_t gen_t0 = NowNs();
  const Stream stream = Generate(*def, def->alive, def->alive + def->alive / 2, seed);
  const double generate_s = (NowNs() - gen_t0) * 1e-9;
  malloc_trim(0);
  ResetPeakRss();
  const int64_t rss_base = CurrentRssBytes();

  // 2 and 3. Setup and measured phase. The measured phase is cut into one
  // segment per setup, each on its own freshly built and warmed clusterer:
  // how fast a clusterer runs depends on where its memory landed (the same
  // seed ran 20% slower in one process than in the next, steady within
  // each), so the segments sample several placements. Peak RSS is taken
  // after the first warm-up and recovery after every warm-up: a fixed
  // amount of work, where the measured history grows with the host's speed
  // (point ids are never reused, so per-id state and the log grow with
  // every insert).
  Feeder feeder(*def, stream, work_dir, seed);
  std::vector<double> setups;
  double peak_rss_mb = 0;
  std::vector<double> recoveries;
  PhaseResult phase;
  Metrics m;
  int64_t attempted = 0;
  SpanLog spans;
  RegistryDelta delta;
  double overhead_ratio = 0;
  int64_t engine_ops_before = 0, engine_ops_after = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(feeder.Setup());
    feeder.WarmUp(stream.window);
    if (i == 0) peak_rss_mb = (PeakRssBytes() - rss_base) / (1024.0 * 1024.0);
    if (def->durable) {
      for (int r = 0; r < kRecoverRepeats; ++r) {
        recoveries.push_back(feeder.RecoverAndCheck(/*close=*/false).first);
      }
    } else {
      for (double secs : feeder.SnapshotRoundTrips(kRecoverRepeats)) {
        recoveries.push_back(secs);
      }
    }
    if (!traced) phase.Append(feeder.Measure<false>(seconds / kSetupRepeats, nullptr));
  }

  if (traced) {
    // Untraced, traced, untraced (a quarter, a half, a quarter of the
    // time) on the last setup: the traced wall time per op over the
    // untraced one is the tracing overhead, and drift over the run cancels
    // to first order.
    const PhaseResult before_plain = feeder.Measure<false>(seconds / 4, nullptr);
    spans.Reserve(kSpanCapacity);
    PublishEngineGauges(feeder.clusterer());
    const auto before = MetricsRegistry::Instance().Snapshot();
    engine_ops_before = ToMap(before).SumPrefixed("engine.shard.", ".ops_applied");
    phase = feeder.Measure<true>(seconds / 2, &spans);
    PublishEngineGauges(feeder.clusterer());
    const auto after = MetricsRegistry::Instance().Snapshot();
    engine_ops_after = ToMap(after).SumPrefixed("engine.shard.", ".ops_applied");
    delta = ToMap(DeltaSince(before, after));
    const PhaseResult after_plain = feeder.Measure<false>(seconds / 4, nullptr);
    overhead_ratio =
        Ratio(phase.wall_s / std::max<int64_t>(phase.ops, 1),
              (before_plain.wall_s + after_plain.wall_s) /
                  std::max<int64_t>(before_plain.ops + after_plain.ops, 1));
    attempted += before_plain.ops + after_plain.ops;
  }
  attempted += phase.ops;

  // 4. Checks.
  const int64_t checks_t0 = NowNs();
  feeder.Check(feeder.clusterer().size() == stream.window, "alive count");
  SpanLog check_spans;
  feeder.CheckQueries(kCheckQueries, traced ? &check_spans : nullptr);
  // Durable: the whole log, measured phase included, must recover too.
  double final_recover_s = 0;
  int64_t final_recovered_ops = 0;
  if (def->durable) {
    std::tie(final_recover_s, final_recovered_ops) =
        feeder.RecoverAndCheck(/*close=*/true);
  }
  const int64_t oracle_t0 = NowNs();
  std::string why;
  const bool sandwich = SandwichOracle(*def, seed, &why);
  feeder.Check(sandwich, "sandwich oracle");
  if (!sandwich) std::fprintf(stderr, "ddcbench: sandwich: %s\n", why.c_str());
  attempted += feeder.checks();
  std::fprintf(stderr,
               "ddcbench: %s seed=%" PRIu64 ": generate %.2fs, setup %.2fs (median"
               " of %d), measured %" PRId64 " ops in %.3fs, checks %.2fs,"
               " oracle %.2fs\n",
               def->name, seed, generate_s, Median(setups), kSetupRepeats, phase.ops,
               phase.wall_s, (oracle_t0 - checks_t0) * 1e-9,
               (NowNs() - oracle_t0) * 1e-9);

  const double probe_after_ms = HostProbeMs();
  std::printf("{\"host_probe_ms\": {\"before\": %.6f, \"after\": %.6f}}\n",
              probe_before_ms, probe_after_ms);

  if (!traced) {
    std::fprintf(stderr, "ddcbench: window rates:");
    for (double w : phase.window_rates) std::fprintf(stderr, " %.0f", w);
    std::fprintf(stderr, "\n");
    m.Add("setup_s", Median(setups), "s");
    m.Add("ops_per_s", Median(phase.window_rates), "1/s");
    m.Add("cpu_s", phase.cpu_s, "s");
    m.Add("peak_rss_mb", peak_rss_mb, "MiB");
    m.Add("insert_p50_us", RunQuantile(phase.insert_ns, 0.50) / 1e3, "us");
    m.Add("insert_p99_us", RunQuantile(phase.insert_ns, 0.99) / 1e3, "us");
    m.Add("delete_p50_us", RunQuantile(phase.delete_ns, 0.50) / 1e3, "us");
    m.Add("delete_p99_us", RunQuantile(phase.delete_ns, 0.99) / 1e3, "us");
    // Query latency is the serve workload's alone: elsewhere no query runs
    // in the measured phase.
    if (def->query_every > 0) {
      m.Add("query_p50_us", RunQuantile(phase.query_ns, 0.50) / 1e3, "us");
      m.Add("query_p99_us", RunQuantile(phase.query_ns, 0.99) / 1e3, "us");
    }
  } else {
    const std::vector<SpanLog::LayerStats> ls = spans.Summarize();
    const double wall = phase.wall_s;
    const bool sharded = def->flush_every > 0;
    const double updates = static_cast<double>(phase.updates);
    const double deletes = static_cast<double>(phase.updates / 2);
    auto p = [&](Layer l, double q) {
      return ExactQuantile(ls[l].durations_ns, q) / 1e3;
    };
    const double update_self = ls[kInsert].self_s + ls[kDelete].self_s;
    double covered = 0;
    for (int l = kPhase + 1; l < kChecks; ++l) covered += ls[l].self_s;

    m.Add("core.update_busy_s", sharded ? 0 : update_self, "s");
    m.Add("core.promotions_per_update", Ratio(delta.Count("core.promotions"), updates), "1/op");
    m.Add("core.demotions_per_update", Ratio(delta.Count("core.demotions"), updates), "1/op");
    m.Add("core.requery_ratio",
          Ratio(delta.Count("core.requeries"),
                delta.Count("core.requeries") + delta.Count("core.prune_skips")),
          "ratio");
    m.Add("abcp.witness_refills_per_update",
          Ratio(delta.Count("abcp.witness_refills"), updates), "1/op");
    m.Add("abcp.witness_repairs_per_delete",
          Ratio(delta.Count("abcp.witness_repairs"), deletes), "1/op");
    m.Add("hdt.replacement_searches_per_delete",
          Ratio(delta.Count("hdt.replacement_searches"), deletes), "1/op");
    m.Add("hdt.replacement_hit_ratio",
          Ratio(delta.Count("hdt.replacements_found"),
                delta.Count("hdt.replacement_searches")),
          "ratio");
    m.Add("grid.cells_created", delta.Count("grid.cells_created"), "count");
    m.Add("grid.index_rehashes", delta.Count("grid.index_rehashes"), "count");
    m.Add("geom.simd_batch_calls_per_update",
          Ratio(delta.SumPrefixed("simd.batch_calls.", ""), updates), "1/op");

    m.Add("snapshot.build_us.p50", p(kSnapshot, 0.50), "us");
    m.Add("snapshot.build_us.p99", p(kSnapshot, 0.99), "us");
    m.Add("snapshot.build_busy_s", ls[kSnapshot].self_s, "s");
    m.Add("snapshot.build_ns_per_alive", p(kSnapshot, 0.50) * 1e3 / stream.window, "ns");
    // ClusterSnapshot::Query is timed over the check queries, which every
    // workload runs.
    const std::vector<SpanLog::LayerStats> cs = check_spans.Summarize();
    m.Add("query.eval_us.p50", ExactQuantile(cs[kSnapshotQuery].durations_ns, 0.50) / 1e3, "us");
    m.Add("query.eval_us.p99", ExactQuantile(cs[kSnapshotQuery].durations_ns, 0.99) / 1e3, "us");
    m.Add("query.eval_busy_s", cs[kSnapshotQuery].self_s, "s");
    m.Add("query.ids_per_query", Ratio(feeder.check_query_ids(), kCheckQueries), "count");

    const double worker_busy = delta.HistSumS("engine.shard_batch");
    m.Add("engine.enqueue_busy_s", sharded ? update_self : 0, "s");
    m.Add("engine.flush_us.p50", p(kFlush, 0.50), "us");
    m.Add("engine.flush_us.p99", p(kFlush, 0.99), "us");
    m.Add("engine.flush_busy_s", ls[kFlush].self_s, "s");
    m.Add("engine.worker_busy_s", worker_busy, "s");
    m.Add("engine.worker_busy_share",
          Ratio(worker_busy, std::max(def->engine_threads, 1) * wall), "ratio");
    m.Add("engine.stitch_rebuild_s", delta.HistSumS("engine.stitch_rebuild"), "s");
    m.Add("engine.snapshot_publish_s", delta.HistSumS("engine.snapshot_publish"), "s");
    m.Add("engine.holder_fanout",
          sharded ? Ratio(engine_ops_after - engine_ops_before, updates) : 0, "1/op");
    m.Add("engine.shard_imbalance",
          sharded ? delta.Count("engine.shard_imbalance") / 1000.0 : 0, "ratio");
    m.Add("engine.queue_hwm",
          sharded ? delta.MaxPrefixed("engine.shard.", ".queue_hwm") : 0, "count");

    m.Add("wal.append_us.p50", p(kWalAppend, 0.50), "us");
    m.Add("wal.append_us.p99", p(kWalAppend, 0.99), "us");
    m.Add("wal.append_busy_s", ls[kWalAppend].self_s, "s");
    m.Add("wal.sync_us.p50", p(kWalSync, 0.50), "us");
    m.Add("wal.sync_us.p99", p(kWalSync, 0.99), "us");
    m.Add("wal.sync_busy_s", ls[kWalSync].self_s, "s");
    m.Add("persist.snapshot_save_us.p50", p(kSnapshotSave, 0.50), "us");
    m.Add("persist.snapshot_save_busy_s", ls[kSnapshotSave].self_s, "s");
    m.Add("wal.bytes_per_update", Ratio(delta.Count("wal.bytes"), updates), "B/op");
    m.Add("persist.snapshot_bytes_per_update",
          Ratio(delta.Count("persist.snapshot_bytes_written"), updates), "B/op");
    m.Add("persist.recover_ops_per_s",
          Ratio(final_recovered_ops, final_recover_s), "1/s");
    m.Add("persist.recover_s",
          recoveries.empty() ? 0 : *std::min_element(recoveries.begin(), recoveries.end()),
          "s");

    m.Add("workload.generate_s", generate_s, "s");
    m.Add("trace.overhead_ratio", overhead_ratio, "ratio");
    m.Add("trace.self_time_coverage", Ratio(covered, wall), "ratio");

    const std::string span_path = work_dir + "/spans-" + def->name + ".tsv";
    const std::string check_path = work_dir + "/spans-" + def->name + "-checks.tsv";
    if (!spans.Write(span_path) || !check_spans.Write(check_path)) {
      std::fprintf(stderr, "ddcbench: cannot write %s\n", span_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "ddcbench: %s traced %zu spans over %.3fs -> %s\n",
                 def->name, spans.spans().size(), wall, span_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              feeder.failures() == 0 ? "true" : "false", attempted,
              feeder.failures(), m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace ddc

int main(int argc, char** argv) { return ddc::Main(argc, argv); }
