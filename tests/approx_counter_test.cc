#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/relaxed_core_tracker.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// The counting contract behind the predicate (Section 7.3):
/// |B(p,ε)| <= Count(p, cap) <= |B(p,(1+ρ)ε)| modulo truncation at cap, and
/// a count capped at MinPts decides k >= MinPts exactly as an uncapped one.
class CoreCountTest : public ::testing::TestWithParam<double> {};

TEST_P(CoreCountTest, CountStaysInsideBandUnderMixedUpdates) {
  const int dim = 2;
  DbscanParams params{.dim = dim, .eps = 1.0, .min_pts = 5, .rho = GetParam()};
  Rng rng(404);
  Grid grid(dim, params.eps);
  RelaxedCoreTracker tracker(&grid, params);

  std::vector<PointId> alive;
  for (int step = 0; step < 1500; ++step) {
    if (alive.empty() || rng.NextBernoulli(0.65)) {
      const auto ins = grid.Insert(UniformPoints(rng, 1, dim, 5.0)[0]);
      tracker.OnInsert(ins.id, ins.cell, [](PointId, CellId) {});
      alive.push_back(ins.id);
    } else {
      const size_t i = rng.NextBelow(alive.size());
      const PointId id = alive[i];
      if (tracker.is_core(id)) tracker.ClearCore(id);
      const CellId cell = grid.Delete(id);
      tracker.OnDelete(id, cell, [](PointId, CellId) {});
      alive[i] = alive.back();
      alive.pop_back();
    }

    if (step % 25 != 0) continue;
    for (int probe = 0; probe < 10; ++probe) {
      const PointId p = alive[rng.NextBelow(alive.size())];
      int inner = 0, outer = 0;
      for (const PointId id : alive) {
        const double d = Distance(grid.point(p), grid.point(id), dim);
        inner += d <= params.eps;
        outer += d <= params.eps_outer();
      }
      const int got = tracker.Count(p, 1000000);
      ASSERT_GE(got, inner) << "step " << step;
      ASSERT_LE(got, outer) << "step " << step;
      const int capped = tracker.Count(p, params.min_pts);
      ASSERT_EQ(capped >= params.min_pts, got >= params.min_pts);
      ASSERT_LE(capped, params.min_pts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rho, CoreCountTest, ::testing::Values(0.0, 0.3));

TEST(CoreCountTest, CountsSelf) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.1};
  Grid grid(2, 1.0);
  RelaxedCoreTracker tracker(&grid, params);
  const auto ins = grid.Insert(Point{1, 1});
  EXPECT_EQ(tracker.Count(ins.id, 10), 1);
}

}  // namespace
}  // namespace ddc
