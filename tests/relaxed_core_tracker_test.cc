#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/relaxed_core_tracker.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// Soundness of the relaxed predicate under mixed updates: a marked core
/// point must have |B(p,(1+ρ)ε)| >= MinPts, an unmarked one must have
/// |B(p,ε)| < MinPts — everything else is don't-care.
TEST(RelaxedTrackerTest, StatusStaysInsideBand) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 4, .rho = 0.15};
  Rng rng(606);
  Grid grid(2, params.eps);
  RelaxedCoreTracker tracker(&grid, params);

  std::vector<PointId> alive;
  auto noop_promote = [&](PointId, CellId) {};
  auto noop_demote = [&](PointId, CellId) {};

  for (int step = 0; step < 1200; ++step) {
    if (alive.empty() || rng.NextBernoulli(0.6)) {
      const Point p = UniformPoints(rng, 1, 2, 4.0)[0];
      const auto ins = grid.Insert(p);
      tracker.OnInsert(ins.id, ins.cell, noop_promote);
      alive.push_back(ins.id);
    } else {
      const size_t i = rng.NextBelow(alive.size());
      const PointId id = alive[i];
      if (tracker.is_core(id)) tracker.ClearCore(id);
      const CellId cell = grid.Delete(id);
      tracker.OnDelete(id, cell, noop_demote);
      alive[i] = alive.back();
      alive.pop_back();
    }

    if (step % 30 != 0) continue;
    for (const PointId p : alive) {
      int inner = 0, outer = 0;
      for (const PointId q : alive) {
        const double d = Distance(grid.point(p), grid.point(q), 2);
        inner += d <= params.eps;
        outer += d <= params.eps_outer();
      }
      if (tracker.is_core(p)) {
        ASSERT_GE(outer, params.min_pts) << "core point outside band";
      } else {
        ASSERT_LT(inner, params.min_pts) << "non-core point outside band";
      }
    }
  }
}

TEST(RelaxedTrackerTest, PromotionsAndDemotionsFire) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.0};
  Grid grid(2, params.eps);
  RelaxedCoreTracker tracker(&grid, params);

  std::vector<PointId> promoted, demoted;
  auto on_promote = [&](PointId p, CellId) { promoted.push_back(p); };
  auto on_demote = [&](PointId p, CellId) { demoted.push_back(p); };

  std::vector<PointId> ids;
  for (const double x : {0.0, 0.1, 0.2}) {
    const auto ins = grid.Insert(Point{x, 0});
    tracker.OnInsert(ins.id, ins.cell, on_promote);
    ids.push_back(ins.id);
  }
  EXPECT_EQ(promoted.size(), 3u);  // All three turn core together.

  // Delete one: the remaining two must demote.
  if (tracker.is_core(ids[0])) tracker.ClearCore(ids[0]);
  const CellId cell = grid.Delete(ids[0]);
  tracker.OnDelete(ids[0], cell, on_demote);
  EXPECT_EQ(demoted.size(), 2u);
  EXPECT_FALSE(tracker.is_core(ids[1]));
  EXPECT_FALSE(tracker.is_core(ids[2]));
}

}  // namespace
}  // namespace ddc
