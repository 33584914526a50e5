#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/abcp.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

// Harness owning two adjacent cells' core states, mirroring what the
// fully-dynamic clusterer does, plus a brute-force oracle.
class AbcpHarness {
 public:
  AbcpHarness(double rho, uint64_t seed)
      : params_{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = rho},
        grid_(2, params_.eps),
        rng_(seed),
        inst_(0, 1) {
    // Two adjacent cells: [0,side)^2 and [side,2*side)x[0,side).
    side_ = grid_.side();
    s1_.core_set = std::make_unique<EmptinessStructure>(
        &grid_, params_, Box(Point{0, 0}, Point{side_, side_}), &slots_);
    s2_.core_set = std::make_unique<EmptinessStructure>(
        &grid_, params_, Box(Point{side_, 0}, Point{2 * side_, side_}),
        &slots_);
    inst_.Initialize(grid_, s1_, s2_);
  }

  PointId InsertInto(int which) {
    CellCoreState& s = which == 0 ? s1_ : s2_;
    Point p;
    p[0] = rng_.NextDouble(0, side_) + (which == 0 ? 0.0 : side_);
    p[1] = rng_.NextDouble(0, side_);
    const PointId id = grid_.Insert(p).id;
    s.core_set->Insert(id);
    s.log.push_back(id);
    inst_.OnCoreInsert(grid_, s1_, s2_);
    return id;
  }

  void Remove(int which, PointId id) {
    CellCoreState& s = which == 0 ? s1_ : s2_;
    ASSERT_TRUE(s.core_set->Contains(id));
    s.core_set->Remove(id);
    inst_.OnCoreRemove(grid_, s1_, s2_, which == 0 ? 0 : 1, id);
  }

  static const std::vector<PointId>& Members(const CellCoreState& s) {
    return s.core_set->members();
  }

  /// True when some cross pair is within eps (the "must have witness" case).
  bool OracleHasClosePair() const {
    for (const PointId a : Members(s1_)) {
      for (const PointId b : Members(s2_)) {
        if (WithinDistance(grid_.point(a), grid_.point(b), 2, params_.eps)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Checks Lemma 3's contract right now.
  void CheckContract() const {
    if (inst_.has_witness()) {
      // Witness endpoints must be current members within (1+rho)*eps.
      ASSERT_TRUE(s1_.core_set->Contains(inst_.w1()));
      ASSERT_TRUE(s2_.core_set->Contains(inst_.w2()));
      ASSERT_LE(Distance(grid_.point(inst_.w1()), grid_.point(inst_.w2()), 2),
                params_.eps_outer() * (1 + 1e-12));
    } else {
      ASSERT_FALSE(OracleHasClosePair())
          << "witness empty while an eps-close pair exists";
    }
  }

  const AbcpInstance& inst() const { return inst_; }
  CellCoreState& s1() { return s1_; }
  CellCoreState& s2() { return s2_; }
  Rng& rng() { return rng_; }

 private:
  DbscanParams params_;
  Grid grid_;
  Rng rng_;
  double side_;
  std::vector<int32_t> slots_;  // Shared by both cells, as in a clusterer.
  CellCoreState s1_, s2_;
  AbcpInstance inst_;
};

TEST(AbcpTest, EmptyCellsHaveNoWitness) {
  AbcpHarness h(0.1, 1);
  EXPECT_FALSE(h.inst().has_witness());
}

TEST(AbcpTest, InsertionCreatesWitness) {
  AbcpHarness h(0.1, 2);
  h.InsertInto(0);
  EXPECT_FALSE(h.inst().has_witness());  // One side empty.
  h.InsertInto(1);
  // Adjacent cells of side eps/sqrt(2): any cross pair is within ~1.58*eps,
  // not necessarily within eps; the contract only *requires* a witness when
  // a pair is within eps.
  h.CheckContract();
}

TEST(AbcpTest, RemovalRepairsOrEmpties) {
  AbcpHarness h(0.05, 3);
  std::vector<PointId> a, b;
  for (int i = 0; i < 5; ++i) a.push_back(h.InsertInto(0));
  for (int i = 0; i < 5; ++i) b.push_back(h.InsertInto(1));
  h.CheckContract();
  for (const PointId p : a) {
    h.Remove(0, p);
    h.CheckContract();
  }
  EXPECT_FALSE(h.inst().has_witness());  // Side 1 empty.
}

// Randomized fuzz: arbitrary insert/remove interleavings keep the contract.
TEST(AbcpFuzzTest, ContractUnderRandomUpdates) {
  for (const double rho : {0.0, 0.01, 0.3}) {
    AbcpHarness h(rho, 1000 + static_cast<int>(rho * 100));
    std::vector<std::pair<int, PointId>> alive;
    for (int step = 0; step < 1200; ++step) {
      if (alive.empty() || h.rng().NextBernoulli(0.55)) {
        const int which = static_cast<int>(h.rng().NextBelow(2));
        alive.emplace_back(which, h.InsertInto(which));
      } else {
        const size_t i = h.rng().NextBelow(alive.size());
        h.Remove(alive[i].first, alive[i].second);
        alive[i] = alive.back();
        alive.pop_back();
      }
      h.CheckContract();
    }
  }
}

}  // namespace
}  // namespace ddc
