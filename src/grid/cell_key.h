#ifndef DDC_GRID_CELL_KEY_H_
#define DDC_GRID_CELL_KEY_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "geom/point.h"

namespace ddc {

/// Integer coordinates of a grid cell. The grid (Section 4.1 of the paper)
/// tiles R^d with axis-parallel cells of side ε/√d, so that any two points in
/// the same cell are within ε of each other. Cell (k_1, ..., k_d) covers the
/// half-open box [k_i * side, (k_i + 1) * side) on each dimension.
class CellKey {
 public:
  /// Bound on |key coordinate|. It leaves int32 room for a neighbor offset
  /// added to a key and for the difference of two keys (Grid::KeyGapSq).
  static constexpr double kLimit = 1 << 30;

  CellKey() : c_{} {}

  /// Key of the cell covering `p` on a grid with the given side length.
  /// Aborts on a non-finite coordinate or one whose key would pass kLimit
  /// (about 1e9 * side): casting such a quotient to int32 is undefined.
  static CellKey Of(const Point& p, int dim, double side) {
    CellKey k;
    for (int i = 0; i < dim; ++i) {
      const double q = std::floor(p[i] / side);
      // NaN fails the comparison too.
      DDC_CHECK(std::fabs(q) < kLimit);
      k.c_[i] = static_cast<int32_t>(q);
    }
    return k;
  }

  int32_t operator[](int i) const { return c_[i]; }
  int32_t& operator[](int i) { return c_[i]; }

  friend bool operator==(const CellKey& a, const CellKey& b) {
    return a.c_ == b.c_;
  }

  /// Key translated by `offset` (component-wise, first `dim` coordinates).
  CellKey Shifted(const std::array<int32_t, kMaxDim>& offset, int dim) const {
    CellKey k = *this;
    for (int i = 0; i < dim; ++i) k.c_[i] += offset[i];
    return k;
  }

  /// Independent hash contribution of coordinate value `c` on dimension `i`.
  /// The full hash is the wrapping sum of the per-dimension terms — a
  /// *decomposable* design: the hash of a translated key is the base hash
  /// plus the term deltas of the changed dimensions, which is how the grid
  /// probes its whole neighbor-offset table without re-mixing every key
  /// (see Grid::ForEachMaterializedShifted).
  static uint64_t DimTerm(int i, int32_t c) {
    // splitmix64 finalizer over (dimension, coordinate); each dimension gets
    // its own stream via the high 32 bits.
    uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(i + 1)) << 32) ^
                 static_cast<uint32_t>(c);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// 64-bit hash: wrapping sum of DimTerm over all kMaxDim coordinates.
  uint64_t Hash() const {
    uint64_t h = 0;
    for (int i = 0; i < kMaxDim; ++i) h += DimTerm(i, c_[i]);
    return h;
  }

  std::string ToString(int dim) const;

 private:
  std::array<int32_t, kMaxDim> c_;
};

/// Hash functor for hash containers.
struct CellKeyHash {
  size_t operator()(const CellKey& k) const {
    return static_cast<size_t>(k.Hash());
  }
};

}  // namespace ddc

#endif  // DDC_GRID_CELL_KEY_H_
