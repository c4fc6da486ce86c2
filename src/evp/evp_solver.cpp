#include "src/evp/evp_solver.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/dense.hpp"
#include "src/util/error.hpp"

namespace minipop::evp {

namespace {
using grid::Dir;
constexpr int D(Dir d) { return static_cast<int>(d); }
}  // namespace

EvpTileSolver::EvpTileSolver(
    const std::array<util::Field, grid::kNumDirs>& block_coeff, int i0,
    int j0, int nx, int ny, const EvpOptions& options)
    : i0_(i0),
      j0_(j0),
      nx_(nx),
      ny_(ny),
      k_(nx + ny - 1),
      simplified_(options.simplified) {
  MINIPOP_REQUIRE(nx >= 1 && ny >= 1, "tile " << nx << "x" << ny);
  const auto& c0 = block_coeff[D(Dir::kCenter)];
  MINIPOP_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + nx <= c0.nx() &&
                      j0 + ny <= c0.ny(),
                  "tile [" << i0 << "," << i0 + nx << ")x[" << j0 << ","
                           << j0 + ny << ") outside block " << c0.nx() << "x"
                           << c0.ny());

  // The simplified variant is only valid where the edge coefficients are
  // genuinely an order smaller than the corner ones (paper §4.3 — true
  // for POP's production grids, not for arbitrarily anisotropic tiles).
  if (simplified_) {
    double max_edge = 0.0, max_corner = 0.0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        for (Dir d : {Dir::kEast, Dir::kWest, Dir::kNorth, Dir::kSouth})
          max_edge = std::max(max_edge,
                              std::abs(block_coeff[D(d)](i0 + i, j0 + j)));
        for (Dir d : {Dir::kNorthEast, Dir::kNorthWest, Dir::kSouthEast,
                      Dir::kSouthWest})
          max_corner = std::max(
              max_corner, std::abs(block_coeff[D(d)](i0 + i, j0 + j)));
      }
    if (max_edge > options.simplified_threshold * max_corner)
      simplified_ = false;
  }

  // Copy the tile's coefficients.
  const std::size_t cells = static_cast<std::size_t>(nx) * ny;
  coeff_.assign(grid::kNumDirs * cells, 0.0);
  for (int d = 0; d < grid::kNumDirs; ++d) {
    const bool is_edge = (d == D(Dir::kEast) || d == D(Dir::kWest) ||
                          d == D(Dir::kNorth) || d == D(Dir::kSouth));
    if (simplified_ && is_edge) continue;  // paper §4.3 variant
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        coeff_[d * cells + static_cast<std::size_t>(j) * nx + i] =
            block_coeff[d](i0 + i, j0 + j);
  }

  // Marching pivot must be nonzero wherever an equation is consumed.
  const double* cne = coeff_.data() + D(Dir::kNorthEast) * cells;
  for (int j = 0; j + 1 < ny; ++j)
    for (int i = 0; i + 1 < nx; ++i)
      MINIPOP_REQUIRE(cne[static_cast<std::size_t>(j) * nx + i] != 0.0,
                      "zero NE pivot at tile cell (" << i << "," << j
                      << ") — EVP needs a regularized (land-free) operator");

  // Preprocessing: influence matrix W by marching unit guesses with zero
  // right-hand side, then its LU factorization (Algorithm 3, steps 1-8).
  // Each march runs kPackLanes columns as lanes that share the tile's
  // coefficients; a column's operations are those of a width-1 march.
  constexpr int L = lanes::kPackLanes;
  const lanes::TileOperands ops = operands();
  const std::vector<double> zero_y(cells * L, 0.0);
  std::vector<double> x(lanes::padded_cells(nx, ny) * L);
  std::vector<double> f(static_cast<std::size_t>(k_) * L);
  linalg::DenseMatrix w(k_, k_);
  for (int m0 = 0; m0 < k_; m0 += L) {
    std::fill(x.begin(), x.end(), 0.0);
    for (int l = 0; l < L && m0 + l < k_; ++l)  // lane l: unit guess m0 + l
      x[lanes::guess_offset<L>(nx, m0 + l) + l] = 1.0;
    lanes::march<L, 1, 0>(ops, zero_y, x);
    lanes::residual_f<L, 1, 0>(ops, x, zero_y, f);
    for (int l = 0; l < L && m0 + l < k_; ++l)
      for (int r = 0; r < k_; ++r) w(r, m0 + l) = f[r * L + l];
  }
  const linalg::LuFactorization w_lu(std::move(w));
  lu_.resize(static_cast<std::size_t>(k_) * k_);
  for (int r = 0; r < k_; ++r)
    for (int c = 0; c < k_; ++c)
      lu_[static_cast<std::size_t>(r) * k_ + c] = w_lu.factors()(r, c);
  perm_ = w_lu.permutation();

  const std::uint64_t pts = static_cast<std::uint64_t>(nx) * ny;
  const std::uint64_t march_ops = (simplified_ ? 5u : 9u) * pts;
  setup_flops_ = static_cast<std::uint64_t>(k_) * march_ops +
                 static_cast<std::uint64_t>(k_) * k_ * k_;

  // Self-check: EVP marching amplifies round-off with tile size; verify
  // the tile is within its stability range (paper: ~1e-8 at 12x12).
  {
    util::Field x_ref(nx, ny), y(nx, ny), x_got;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        x_ref(i, j) = ((i * 7 + j * 13) % 11 - 5) / 5.0;
    apply_operator(x_ref, y);
    solve(y, x_got);
    double err = 0.0, scale = 0.0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        err = std::max(err, std::abs(x_got(i, j) - x_ref(i, j)));
        scale = std::max(scale, std::abs(x_ref(i, j)));
      }
    measured_accuracy_ = scale > 0 ? err / scale : 0.0;
    if (options.validate_accuracy > 0) {
      MINIPOP_REQUIRE(measured_accuracy_ <= options.validate_accuracy,
                      "EVP tile " << nx << "x" << ny
                                  << " is numerically unstable (error "
                                  << measured_accuracy_
                                  << "); use smaller tiles (max_tile <= 12)");
    }
  }
}

namespace {

/// Copy a tile field into (or out of) the interior of a width-1 padded
/// lane array.
void to_padded(const util::Field& in, std::vector<double>& out) {
  const int nx = in.nx();
  for (int j = 0; j < in.ny(); ++j)
    std::copy_n(in.data() + static_cast<std::ptrdiff_t>(j) * nx, nx,
                out.data() + static_cast<std::ptrdiff_t>(j + 1) * (nx + 2) +
                    1);
}
void from_padded(const std::vector<double>& in, util::Field& out) {
  const int nx = out.nx();
  for (int j = 0; j < out.ny(); ++j)
    std::copy_n(in.data() + static_cast<std::ptrdiff_t>(j + 1) * (nx + 2) + 1,
                nx, out.data() + static_cast<std::ptrdiff_t>(j) * nx);
}

}  // namespace

void EvpTileSolver::march_sweep(const util::Field& y, util::Field& x) const {
  MINIPOP_REQUIRE(y.nx() == nx_ && y.ny() == ny_ && x.nx() == nx_ &&
                      x.ny() == ny_,
                  "tile shape mismatch");
  std::vector<double> xp(lanes::padded_cells(nx_, ny_), 0.0);
  to_padded(x, xp);
  lanes::march<1, 1, 0>(operands(), y.flat(), xp);
  from_padded(xp, x);
}

void EvpTileSolver::apply_operator(const util::Field& in,
                                   util::Field& out) const {
  MINIPOP_REQUIRE(in.nx() == nx_ && in.ny() == ny_, "tile shape mismatch");
  if (out.nx() != nx_ || out.ny() != ny_) out = util::Field(nx_, ny_);
  auto X = [&](int a, int b) -> double {
    return (a >= 0 && a < nx_ && b >= 0 && b < ny_) ? in(a, b) : 0.0;
  };
  const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
  for (int b = 0; b < ny_; ++b)
    for (int a = 0; a < nx_; ++a) {
      double acc = 0.0;
      for (int d = 0; d < grid::kNumDirs; ++d) {
        const auto [di, dj] = grid::kDirOffset[d];
        acc += coeff_[d * cells + static_cast<std::size_t>(b) * nx_ + a] *
               X(a + di, b + dj);
      }
      out(a, b) = acc;
    }
}

void EvpTileSolver::solve(const util::Field& y, util::Field& x) const {
  MINIPOP_REQUIRE(y.nx() == nx_ && y.ny() == ny_, "tile rhs shape mismatch");
  if (x.nx() != nx_ || x.ny() != ny_) x = util::Field(nx_, ny_);
  std::vector<double> xp(lanes::padded_cells(nx_, ny_));
  std::vector<double> f(k_), g(k_);
  lanes::solve<1, 1, 0>(operands(), y.flat(), xp, f, g);
  from_padded(xp, x);
}

std::uint64_t EvpTileSolver::solve_flops() const {
  const std::uint64_t pts = static_cast<std::uint64_t>(nx_) * ny_;
  // Paper counting: two marches + the k x k correction solve, i.e.
  // ~22 n^2 full, ~14 n^2 simplified (§4.2-4.3).
  return 2 * (simplified_ ? 5u : 9u) * pts +
         static_cast<std::uint64_t>(k_) * k_;
}

}  // namespace minipop::evp
