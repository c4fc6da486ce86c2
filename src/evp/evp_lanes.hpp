// Lane-parallel EVP tile kernel (paper §4.2, Algorithm 3, Eq. 4).
//
// One call solves L independent tile problems of one nx x ny shape in
// lockstep. Every array is lane-fastest, so the innermost loop runs over
// lanes and L marching chains — each a serial chain through the NE-pivot
// divide — overlap in the pipeline. Each lane does exactly the width-1
// operations in the width-1 order, so its bits equal a width-1 solve of
// its own problem. EvpTileSolver runs the kernel at L = 1 (solve,
// march_sweep) and at L = 8 for the unit-guess columns of W;
// BlockEvpPreconditioner runs it at L = 8 over packs of same-shape tiles
// or over 8 batch members of one tile.
//
// Work arrays, entry e of lane l at [e * L + l]:
//   y     nx * ny, row-major: the right-hand side.
//   x     (nx + 2) * (ny + 2): the solution inside a zero ring, tile cell
//         (i, j) at padded cell (i + 1, j + 1). The ring holds the zero
//         Dirichlet values outside the tile, so no read is checked and a
//         coefficient meets exactly the 0.0 a checked read would give.
//   f, g  k = nx + ny - 1: the residuals at the f set and the guess
//         correction.
// Operands (TileOperands) are addressed through the template's P and S:
// lane l reads entry e of the coefficient planes, the LU factors and the
// pivots at [e * P + l * S]. P = L, S = 1 gives every lane its own tile
// (a pack); S = 0 lets every lane share one tile.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "src/grid/stencil.hpp"
#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::evp::lanes {

/// Lanes of a BlockEvpPreconditioner pack.
inline constexpr int kPackLanes = 8;

/// One tile shape's solve operands (layout: see the file comment).
struct TileOperands {
  int nx = 0;
  int ny = 0;
  /// Nine coefficient planes of nx * ny entries, in grid::Dir order.
  const double* coeff = nullptr;
  /// LU factors of the influence matrix W (k x k entries, row-major).
  const double* lu = nullptr;
  /// Row permutation of the LU factorization (k entries).
  const int* perm = nullptr;

  int k() const { return nx + ny - 1; }
};

/// Cells of the padded solution array x of an nx x ny tile.
inline std::size_t padded_cells(int nx, int ny) {
  return static_cast<std::size_t>(nx + 2) * (ny + 2);
}

namespace detail {

/// Coefficient plane d of `t` for operand pitch P.
template <int P>
const double* plane(const TileOperands& t, grid::Dir d) {
  return t.coeff + static_cast<std::ptrdiff_t>(static_cast<int>(d)) * t.nx *
                       t.ny * P;
}

}  // namespace detail

/// Offset in x of lane 0 of guess cell m: cell (m, 0) along the south
/// row for m < nx, then (0, m - nx + 1) up the west column.
template <int L>
std::ptrdiff_t guess_offset(int nx, int m) {
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * L;
  return m < nx ? row + static_cast<std::ptrdiff_t>(m + 1) * L
                : (m - nx + 2) * row + L;
}

/// Zero the guess cells (south row, west column) and the ring of x: the
/// state a solve starts from. Other cells are written before they are
/// read, so stale values from an earlier call do not matter.
template <int L>
void clear_guess_and_ring(int nx, int ny, std::span<double> x) {
  MINIPOP_ASSERT(x.size() >= padded_cells(nx, ny) * L);
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * L;
  double* p = x.data();
  std::fill_n(p, 2 * row, 0.0);  // south ring row and the guess row
  for (int q = 2; q <= ny; ++q) {
    std::fill_n(p + q * row, 2 * L, 0.0);  // west ring and guess column
    std::fill_n(p + q * row + static_cast<std::ptrdiff_t>(nx + 1) * L, L,
                0.0);  // east ring
  }
  std::fill_n(p + (ny + 1) * row, row, 0.0);  // north ring row
}

/// One marching sweep (Eq. 4): the guess cells of x are inputs, every
/// other tile cell is overwritten. The equation at cell (a - 1, b - 1)
/// is solved for its NE neighbour (a, b).
template <int L, int P, int S>
void march(const TileOperands& t, std::span<const double> y,
           std::span<double> x) {
  const int nx = t.nx;
  const int ny = t.ny;
  MINIPOP_ASSERT(y.size() >= static_cast<std::size_t>(nx) * ny * L);
  MINIPOP_ASSERT(x.size() >= padded_cells(nx, ny) * L);
  using grid::Dir;
  const double* MINIPOP_RESTRICT cc = detail::plane<P>(t, Dir::kCenter);
  const double* MINIPOP_RESTRICT ce = detail::plane<P>(t, Dir::kEast);
  const double* MINIPOP_RESTRICT cw = detail::plane<P>(t, Dir::kWest);
  const double* MINIPOP_RESTRICT cn = detail::plane<P>(t, Dir::kNorth);
  const double* MINIPOP_RESTRICT cs = detail::plane<P>(t, Dir::kSouth);
  const double* MINIPOP_RESTRICT cne = detail::plane<P>(t, Dir::kNorthEast);
  const double* MINIPOP_RESTRICT cnw = detail::plane<P>(t, Dir::kNorthWest);
  const double* MINIPOP_RESTRICT cse = detail::plane<P>(t, Dir::kSouthEast);
  const double* MINIPOP_RESTRICT csw = detail::plane<P>(t, Dir::kSouthWest);
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * L;
  for (int b = 1; b < ny; ++b) {
    const double* MINIPOP_RESTRICT yb =
        y.data() + static_cast<std::ptrdiff_t>(b - 1) * nx * L;
    double* xb = x.data() + (b + 1) * row + L;  // tile cell (0, b)
    const double* xb1 = xb - row;               // tile row b - 1
    const double* xb2 = xb1 - row;              // tile row b - 2
    const std::ptrdiff_t cb = static_cast<std::ptrdiff_t>(b - 1) * nx * P;
    for (int ea = 0; ea + 1 < nx; ++ea) {
      const std::ptrdiff_t c = cb + static_cast<std::ptrdiff_t>(ea) * P;
      const std::ptrdiff_t o = static_cast<std::ptrdiff_t>(ea) * L;
      // All lanes read first and store after, so the lane loop carries
      // no store-to-load dependence and vectorizes.
      double v[L];
      for (int l = 0; l < L; ++l) {
        const std::ptrdiff_t q = c + l * S;
        const std::ptrdiff_t e = o + l;
        const double sum = cc[q] * xb1[e] + ce[q] * xb1[e + L] +
                           cw[q] * xb1[e - L] + cn[q] * xb[e] +
                           cs[q] * xb2[e] + cnw[q] * xb[e - L] +
                           cse[q] * xb2[e + L] + csw[q] * xb2[e - L];
        v[l] = (yb[e] - sum) / cne[q];
      }
      for (int l = 0; l < L; ++l) xb[o + L + l] = v[l];
    }
  }
}

/// Residuals of the equations the march does not consume (the f set):
/// f[a] at the north-row cell (a, ny - 1), then f[nx + b] at the
/// east-column cell (nx - 1, b) for b < ny - 1.
template <int L, int P, int S>
void residual_f(const TileOperands& t, std::span<const double> x,
                std::span<const double> y, std::span<double> f) {
  const int nx = t.nx;
  const int ny = t.ny;
  MINIPOP_ASSERT(x.size() >= padded_cells(nx, ny) * L);
  MINIPOP_ASSERT(y.size() >= static_cast<std::size_t>(nx) * ny * L);
  MINIPOP_ASSERT(f.size() >= static_cast<std::size_t>(t.k()) * L);
  using grid::Dir;
  const double* cc = detail::plane<P>(t, Dir::kCenter);
  const double* ce = detail::plane<P>(t, Dir::kEast);
  const double* cw = detail::plane<P>(t, Dir::kWest);
  const double* cn = detail::plane<P>(t, Dir::kNorth);
  const double* cs = detail::plane<P>(t, Dir::kSouth);
  const double* cne = detail::plane<P>(t, Dir::kNorthEast);
  const double* cnw = detail::plane<P>(t, Dir::kNorthWest);
  const double* cse = detail::plane<P>(t, Dir::kSouthEast);
  const double* csw = detail::plane<P>(t, Dir::kSouthWest);
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * L;
  const double* xp = x.data();
  auto cell = [&](int a, int b, double* out) {
    const std::ptrdiff_t c = (static_cast<std::ptrdiff_t>(b) * nx + a) * P;
    const std::ptrdiff_t yo = (static_cast<std::ptrdiff_t>(b) * nx + a) * L;
    const std::ptrdiff_t xo =
        (b + 1) * row + static_cast<std::ptrdiff_t>(a + 1) * L;
    double acc[L];  // read all lanes, then store: see march()
    for (int l = 0; l < L; ++l) {
      const std::ptrdiff_t q = c + l * S;
      const std::ptrdiff_t e = xo + l;
      acc[l] = -y[yo + l];
      acc[l] += cc[q] * xp[e];
      acc[l] += ce[q] * xp[e + L];
      acc[l] += cw[q] * xp[e - L];
      acc[l] += cn[q] * xp[e + row];
      acc[l] += cs[q] * xp[e - row];
      acc[l] += cne[q] * xp[e + row + L];
      acc[l] += cnw[q] * xp[e + row - L];
      acc[l] += cse[q] * xp[e - row + L];
      acc[l] += csw[q] * xp[e - row - L];
    }
    std::copy_n(acc, L, out);
  };
  for (int a = 0; a < nx; ++a) cell(a, ny - 1, f.data() + a * L);
  for (int b = 0; b + 1 < ny; ++b)
    cell(nx - 1, b, f.data() + static_cast<std::ptrdiff_t>(nx + b) * L);
}

/// g = W^-1 f through the LU factors: permutation, forward substitution
/// with the unit lower factor, back substitution.
template <int L, int P, int S>
void lu_solve(const TileOperands& t, std::span<const double> f,
              std::span<double> g) {
  const int k = t.k();
  MINIPOP_ASSERT(f.size() >= static_cast<std::size_t>(k) * L);
  MINIPOP_ASSERT(g.size() >= static_cast<std::size_t>(k) * L);
  const double* lu = t.lu;
  double* x = g.data();
  for (int r = 0; r < k; ++r)
    for (int l = 0; l < L; ++l) {
      const int src = t.perm[r * P + l * S];
      MINIPOP_ASSERT(src >= 0 && src < k);
      x[r * L + l] = f[static_cast<std::ptrdiff_t>(src) * L + l];
    }
  double acc[L];
  for (int r = 1; r < k; ++r) {
    const double* lr = lu + static_cast<std::ptrdiff_t>(r) * k * P;
    for (int l = 0; l < L; ++l) acc[l] = x[r * L + l];
    for (int c = 0; c < r; ++c)
      for (int l = 0; l < L; ++l) acc[l] -= lr[c * P + l * S] * x[c * L + l];
    for (int l = 0; l < L; ++l) x[r * L + l] = acc[l];
  }
  for (int r = k - 1; r >= 0; --r) {
    const double* lr = lu + static_cast<std::ptrdiff_t>(r) * k * P;
    for (int l = 0; l < L; ++l) acc[l] = x[r * L + l];
    for (int c = r + 1; c < k; ++c)
      for (int l = 0; l < L; ++l) acc[l] -= lr[c * P + l * S] * x[c * L + l];
    for (int l = 0; l < L; ++l) x[r * L + l] = acc[l] / lr[r * P + l * S];
  }
}

/// Solve B x = y on every lane (Algorithm 3, solving phase): march from
/// a zero guess, correct the guess by -W^-1 F, march again. f and g are
/// scratch of k * L entries.
template <int L, int P, int S>
void solve(const TileOperands& t, std::span<const double> y,
           std::span<double> x, std::span<double> f, std::span<double> g) {
  const int nx = t.nx;
  clear_guess_and_ring<L>(nx, t.ny, x);
  march<L, P, S>(t, y, x);
  residual_f<L, P, S>(t, x, y, f);
  lu_solve<L, P, S>(t, f, g);
  for (int m = 0; m < t.k(); ++m) {
    const std::ptrdiff_t e = guess_offset<L>(nx, m);
    for (int l = 0; l < L; ++l) x[e + l] = -g[m * L + l];
  }
  march<L, P, S>(t, y, x);
}

}  // namespace minipop::evp::lanes
