#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/emptiness.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// n points uniform in `box`.
std::vector<Point> PointsInBox(Rng& rng, const Box& box, int n, int dim) {
  std::vector<Point> pts(n);
  for (Point& p : pts) {
    for (int i = 0; i < dim; ++i) {
      p[i] = rng.NextDouble(box.lo()[i], box.hi()[i]);
    }
  }
  return pts;
}

/// The box of the grid cell holding `p`, as Grid::cell_box computes it
/// (the cell need not exist yet).
Box CellBoxAt(const Grid& grid, const Point& p, int dim) {
  const CellKey key = CellKey::Of(p, dim, grid.side());
  Point lo, hi;
  for (int i = 0; i < dim; ++i) {
    lo[i] = key[i] * grid.side();
    hi[i] = (key[i] + 1) * grid.side();
  }
  return Box(lo, hi);
}

class EmptinessContractTest : public ::testing::TestWithParam<double> {};

// The ρ-approximate ε-emptiness contract (Section 4.2): a query must find a
// proof when some member is within ε, must find none when no member is
// within (1+ρ)ε, and any returned proof must be within (1+ρ)ε. Members
// fill one grid cell, as in the clusterers, and queries come from the cell
// and the 2ε around it, so both the cell-box prefilter and the scan answer.
TEST_P(EmptinessContractTest, ContractHolds) {
  const double rho = GetParam();
  const int dim = 3;
  DbscanParams params{.dim = dim, .eps = 1.0, .min_pts = 3, .rho = rho};
  Rng rng(42);

  Grid grid(dim, params.eps);
  const Box box = CellBoxAt(grid, Point{0.1, 0.1, 0.1}, dim);
  std::vector<int32_t> slots;
  EmptinessStructure structure(&grid, params, box, &slots);

  std::vector<PointId> members;
  for (const Point& p : PointsInBox(rng, box, 40, dim)) {
    const PointId id = grid.Insert(p).id;
    members.push_back(id);
    structure.Insert(id);
  }
  ASSERT_EQ(structure.size(), 40);

  const Box around(Point{-2, -2, -2},
                   Point{box.hi()[0] + 2, box.hi()[1] + 2, box.hi()[2] + 2});
  for (int probe = 0; probe < 600; ++probe) {
    const Point q = PointsInBox(rng, around, 1, dim)[0];
    double best = 1e100;
    for (const PointId m : members) {
      best = std::min(best, Distance(q, grid.point(m), dim));
    }
    const PointId proof = structure.Query(q);
    if (best <= params.eps) {
      ASSERT_NE(proof, kInvalidPoint) << "must-find violated, best=" << best;
    }
    if (best > params.eps_outer()) {
      ASSERT_EQ(proof, kInvalidPoint) << "must-miss violated, best=" << best;
    }
    if (proof != kInvalidPoint) {
      ASSERT_LE(Distance(q, grid.point(proof), dim),
                params.eps_outer() * (1 + 1e-12));
    }
  }
}

TEST_P(EmptinessContractTest, RemoveWorks) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = GetParam()};
  Grid grid(2, params.eps);
  const Box box = CellBoxAt(grid, Point{0, 0}, 2);
  std::vector<int32_t> slots;
  EmptinessStructure s(&grid, params, box, &slots);

  const PointId a = grid.Insert(Point{0, 0}).id;
  const PointId b = grid.Insert(Point{0.1, 0.1}).id;
  s.Insert(a);
  s.Insert(b);
  EXPECT_EQ(s.size(), 2);

  s.Remove(a);
  EXPECT_EQ(s.size(), 1);
  EXPECT_FALSE(s.Contains(a));
  EXPECT_TRUE(s.Contains(b));
  const PointId proof = s.Query(Point{0, 0});
  EXPECT_EQ(proof, b);  // Only b remains.

  s.Remove(b);
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.Query(Point{0, 0}), kInvalidPoint);
}

TEST_P(EmptinessContractTest, MembersListsAllMembers) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = GetParam()};
  Rng rng(7);
  Grid grid(2, params.eps);
  const Box box = CellBoxAt(grid, Point{0.1, 0.1}, 2);
  std::vector<int32_t> slots;
  EmptinessStructure s(&grid, params, box, &slots);

  std::set<PointId> want;
  for (const Point& p : PointsInBox(rng, box, 37, 2)) {
    const PointId id = grid.Insert(p).id;
    s.Insert(id);
    want.insert(id);
  }
  const std::set<PointId> got(s.members().begin(), s.members().end());
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Rho, EmptinessContractTest,
                         ::testing::Values(0.0, 0.001, 0.2, 0.5));

// Randomized mixed insert/remove fuzz against a naive mirror. Two cells
// share one slot registry, as all cells of a clusterer do, and removed
// points may be re-added later, so stale registry entries of former members
// are exercised.
TEST(EmptinessFuzzTest, MixedUpdatesKeepContract) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.2};
  Rng rng(99);
  Grid grid(2, params.eps);
  const double side = grid.side();
  std::vector<int32_t> slots;
  const Box boxes[2] = {CellBoxAt(grid, Point{0.5 * side, 0.5 * side}, 2),
                        CellBoxAt(grid, Point{1.5 * side, 0.5 * side}, 2)};
  EmptinessStructure cells[2] = {
      EmptinessStructure(&grid, params, boxes[0], &slots),
      EmptinessStructure(&grid, params, boxes[1], &slots)};
  std::vector<PointId> members[2];
  std::vector<PointId> pool;  // Points no structure holds right now.

  for (int step = 0; step < 3000; ++step) {
    const int which = static_cast<int>(rng.NextBelow(2));
    EmptinessStructure& s = cells[which];
    std::vector<PointId>& mine = members[which];
    if (mine.empty() || rng.NextBernoulli(0.6)) {
      PointId id;
      // Re-add a former member when it lies inside this cell's box;
      // otherwise insert a fresh point.
      if (!pool.empty() && rng.NextBernoulli(0.3)) {
        const size_t i = rng.NextBelow(pool.size());
        if (!boxes[which].Contains(grid.point(pool[i]), 2)) continue;
        id = pool[i];
        pool[i] = pool.back();
        pool.pop_back();
      } else {
        id = grid.Insert(PointsInBox(rng, boxes[which], 1, 2)[0]).id;
      }
      ASSERT_FALSE(cells[0].Contains(id) || cells[1].Contains(id));
      s.Insert(id);
      mine.push_back(id);
    } else {
      const size_t i = rng.NextBelow(mine.size());
      ASSERT_TRUE(s.Contains(mine[i]));
      s.Remove(mine[i]);
      ASSERT_FALSE(cells[0].Contains(mine[i]) || cells[1].Contains(mine[i]));
      pool.push_back(mine[i]);
      mine[i] = mine.back();
      mine.pop_back();
    }
    ASSERT_EQ(s.size(), static_cast<int>(mine.size()));
    if (step % 10 == 0) {
      const Point q = UniformPoints(rng, 1, 2, 3.0)[0];
      double best = 1e100;
      for (const PointId m : mine) {
        best = std::min(best, Distance(q, grid.point(m), 2));
      }
      const PointId proof = s.Query(q);
      if (best <= params.eps) {
        ASSERT_NE(proof, kInvalidPoint);
      }
      if (best > params.eps_outer()) {
        ASSERT_EQ(proof, kInvalidPoint);
      }
    }
  }
}

}  // namespace
}  // namespace ddc
