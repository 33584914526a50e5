#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "geom/box.h"
#include "grid/grid.h"
#include "grid/neighbor_offsets.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

TEST(CellKeyTest, OfUsesFloor) {
  const double side = 2.0;
  const CellKey k = CellKey::Of(Point{3.5, -0.5}, 2, side);
  EXPECT_EQ(k[0], 1);
  EXPECT_EQ(k[1], -1);
}

TEST(CellKeyTest, ShiftAndEquality) {
  const CellKey a = CellKey::Of(Point{0.5, 0.5}, 2, 1.0);
  std::array<int32_t, kMaxDim> off{};
  off[0] = 2;
  off[1] = -1;
  const CellKey b = a.Shifted(off, 2);
  EXPECT_EQ(b[0], 2);
  EXPECT_EQ(b[1], -1);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());  // Overwhelmingly likely.
}

// The offset table must contain exactly the offsets whose box-to-box gap is
// at most eps — cross-checked against explicit Box geometry.
class NeighborOffsetsTest : public ::testing::TestWithParam<int> {};

TEST_P(NeighborOffsetsTest, MatchesBoxDistance) {
  const int dim = GetParam();
  const double eps = 3.7;
  const double side = eps / std::sqrt(static_cast<double>(dim));
  NeighborOffsets table(dim, side, eps);

  std::set<std::array<int32_t, kMaxDim>> got(table.offsets().begin(),
                                             table.offsets().end());
  // No duplicates.
  EXPECT_EQ(got.size(), table.offsets().size());
  // Origin excluded.
  EXPECT_EQ(got.count(std::array<int32_t, kMaxDim>{}), 0u);

  // Brute-force enumeration over a generous radius.
  const int radius = static_cast<int>(std::ceil(std::sqrt(dim))) + 2;
  Point zero_lo, zero_hi;
  for (int i = 0; i < dim; ++i) {
    zero_lo[i] = 0;
    zero_hi[i] = side;
  }
  const Box origin(zero_lo, zero_hi);

  std::array<int32_t, kMaxDim> z{};
  int checked = 0;
  std::vector<int> stack(dim, -radius);
  for (;;) {
    for (int i = 0; i < dim; ++i) z[i] = stack[i];
    bool zero = std::all_of(stack.begin(), stack.end(),
                            [](int v) { return v == 0; });
    Point lo, hi;
    for (int i = 0; i < dim; ++i) {
      lo[i] = z[i] * side;
      hi[i] = (z[i] + 1) * side;
    }
    const bool close =
        origin.MinSquaredDistance(Box(lo, hi), dim) <= eps * eps * (1 + 1e-12);
    if (!zero) {
      EXPECT_EQ(got.count(z) > 0, close) << "offset mismatch at dim=" << dim;
    }
    ++checked;
    int i = 0;
    while (i < dim && stack[i] == radius) stack[i++] = -radius;
    if (i == dim) break;
    ++stack[i];
  }
  EXPECT_GT(checked, 1);
}

INSTANTIATE_TEST_SUITE_P(Dims, NeighborOffsetsTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(GridTest, InsertDeleteBookkeeping) {
  Grid grid(2, 1.0);
  const auto r1 = grid.Insert(Point{0.1, 0.1});
  const auto r2 = grid.Insert(Point{0.2, 0.2});
  EXPECT_TRUE(r1.cell_created);
  EXPECT_FALSE(r2.cell_created);   // Same cell (side ≈ 0.707).
  EXPECT_EQ(r1.cell, r2.cell);
  EXPECT_EQ(grid.size(), 2);
  EXPECT_EQ(grid.cell(r1.cell).size(), 2);

  grid.Delete(r1.id);
  EXPECT_FALSE(grid.alive(r1.id));
  EXPECT_TRUE(grid.alive(r2.id));
  EXPECT_EQ(grid.size(), 1);
  EXPECT_EQ(grid.cell(r1.cell).size(), 1);
  EXPECT_EQ(grid.cell(r1.cell).points[0], r2.id);

  // The cell object survives emptiness.
  grid.Delete(r2.id);
  EXPECT_EQ(grid.cell(r1.cell).size(), 0);
  EXPECT_EQ(grid.num_cells(), 1);

  // Reinsertion reuses the materialized cell.
  const auto r3 = grid.Insert(Point{0.3, 0.3});
  EXPECT_FALSE(r3.cell_created);
  EXPECT_EQ(r3.cell, r1.cell);
}

TEST(GridTest, NeighborLinksAreSymmetricAndClose) {
  Rng rng(77);
  Grid grid(3, 2.0);
  for (const Point& p : UniformPoints(rng, 300, 3, 12.0)) grid.Insert(p);

  for (CellId c = 0; c < grid.num_cells(); ++c) {
    const Box cb = grid.cell_box(c);
    for (const CellId nb : grid.cell(c).neighbors) {
      EXPECT_NE(nb, c);
      // ε-close by geometry.
      EXPECT_LE(cb.MinSquaredDistance(grid.cell_box(nb), 3),
                grid.eps() * grid.eps() * (1 + 1e-9));
      // Symmetric.
      const auto& back = grid.cell(nb).neighbors;
      EXPECT_NE(std::find(back.begin(), back.end(), c), back.end());
    }
  }
}

TEST(GridTest, NeighborLinksAreComplete) {
  // Every pair of materialized cells within eps must be linked.
  Rng rng(78);
  Grid grid(2, 1.5);
  for (const Point& p : UniformPoints(rng, 200, 2, 10.0)) grid.Insert(p);
  const double eps_sq = grid.eps() * grid.eps();
  for (CellId a = 0; a < grid.num_cells(); ++a) {
    for (CellId b = a + 1; b < grid.num_cells(); ++b) {
      const double gap_sq =
          grid.cell_box(a).MinSquaredDistance(grid.cell_box(b), 2);
      // Ties at exactly eps (e.g. diagonal offsets on a side of ε/√d) are
      // resolved by the offset table with a tolerance; skip the knife edge.
      if (std::abs(gap_sq - eps_sq) <= 1e-9 * eps_sq) continue;
      const bool close = gap_sq < eps_sq;
      const auto& nbs = grid.cell(a).neighbors;
      const bool linked = std::find(nbs.begin(), nbs.end(), b) != nbs.end();
      EXPECT_EQ(linked, close) << "cells " << a << "," << b;
    }
  }
}

class GridRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(GridRangeTest, RangeMatchesBruteForce) {
  const int dim = GetParam();
  Rng rng(100 + dim);
  const double eps = 1.3;
  Grid grid(dim, eps);
  std::vector<Point> pts = UniformPoints(rng, 400, dim, 8.0);
  std::vector<PointId> ids;
  for (const Point& p : pts) ids.push_back(grid.Insert(p).id);

  // Delete a third of them.
  std::vector<bool> alive(pts.size(), true);
  for (size_t i = 0; i < pts.size(); i += 3) {
    grid.Delete(ids[i]);
    alive[i] = false;
  }

  for (int probe = 0; probe < 50; ++probe) {
    const Point q = UniformPoints(rng, 1, dim, 8.0)[0];
    std::set<PointId> got;
    grid.ForEachPointInRange(q, eps, [&](PointId p) { got.insert(p); });
    std::set<PointId> want;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (alive[i] && WithinDistance(q, pts[i], dim, eps)) {
        want.insert(ids[i]);
      }
    }
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GridRangeTest, ::testing::Values(1, 2, 3, 5, 7));

TEST(GridTest, FindCell) {
  Grid grid(2, 1.0);
  EXPECT_EQ(grid.FindCell(Point{5, 5}), kInvalidCell);
  const auto r = grid.Insert(Point{5, 5});
  EXPECT_EQ(grid.FindCell(Point{5, 5}), r.cell);
  EXPECT_EQ(grid.FindCell(Point{50, 50}), kInvalidCell);
}

TEST(GridTest, CellBoxContainsItsPoints) {
  Rng rng(5);
  Grid grid(4, 2.2);
  for (const Point& p : UniformPoints(rng, 200, 4, 9.0)) {
    const auto r = grid.Insert(p);
    EXPECT_TRUE(grid.cell_box(r.cell).Contains(p, 4));
  }
}

TEST(GridTest, NegativeCoordinates) {
  Grid grid(2, 1.0);
  const auto a = grid.Insert(Point{-0.1, -0.1});
  const auto b = grid.Insert(Point{0.1, 0.1});
  EXPECT_NE(a.cell, b.cell);
  int found = 0;
  grid.ForEachPointInRange(Point{0, 0}, 1.0, [&](PointId) { ++found; });
  EXPECT_EQ(found, 2);
}

// A coordinate whose cell key int32 cannot hold aborts where keys are made,
// instead of reaching the undefined float-to-int cast (and the overflow in
// Grid::KeyGapSq that follows it).
TEST(GridDeathTest, RejectsNonFiniteAndHugeCoordinates) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300, -1e300}) {
    Grid grid(2, 1.0);
    EXPECT_DEATH(grid.Insert(Point{0.5, bad}), "DDC_CHECK failed") << bad;
  }
}

// Keys just inside the limit at both ends are fine, including the key gap
// between them.
TEST(GridTest, KeysNearTheLimitWork) {
  Grid grid(2, 1.0);
  const double far = (CellKey::kLimit - 4) * grid.side() + grid.side() / 2;
  const auto a = grid.Insert(Point{far, 0});
  const auto b = grid.Insert(Point{-far, 0});
  EXPECT_NE(a.cell, b.cell);
  EXPECT_EQ(grid.FindCell(Point{far, 0}), a.cell);
  EXPECT_TRUE(grid.cell(a.cell).neighbors.empty());
  EXPECT_TRUE(grid.cell(b.cell).neighbors.empty());
}

}  // namespace
}  // namespace ddc
