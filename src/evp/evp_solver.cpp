#include "src/evp/evp_solver.hpp"

#include <cmath>

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

  // Copy coefficients, zero-padded by one ring.
  for (int d = 0; d < grid::kNumDirs; ++d) {
    coeff_[d] = util::Field(nx + 2, ny + 2, 0.0);
    const bool is_edge = (d == D(Dir::kEast) || d == D(Dir::kWest) ||
                          d == D(Dir::kNorth) || d == D(Dir::kSouth));
    if (simplified_ && is_edge) continue;  // paper §4.3 variant
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        coeff_[d](i + 1, j + 1) = block_coeff[d](i0 + i, j0 + j);
  }

  // Marching pivot must be nonzero wherever an equation is consumed.
  for (int j = 0; j + 1 < ny; ++j)
    for (int i = 0; i + 1 < nx; ++i)
      MINIPOP_REQUIRE(coeff_[D(Dir::kNorthEast)](i + 1, j + 1) != 0.0,
                      "zero NE pivot at tile cell (" << i << "," << j
                      << ") — EVP needs a regularized (land-free) operator");

  // Preprocessing: influence matrix W by marching unit guesses with zero
  // right-hand side, then its LU factorization (Algorithm 3, steps 1-8).
  const util::Field zero_y(nx, ny, 0.0);
  linalg::DenseMatrix w(k_, k_);
  util::Field x(nx, ny);
  std::vector<double> f(k_);
  for (int m = 0; m < k_; ++m) {
    x.fill(0.0);
    if (m < nx)
      x(m, 0) = 1.0;
    else
      x(0, m - nx + 1) = 1.0;
    march(zero_y, x);
    residual_at_f(x, zero_y, f);
    for (int r = 0; r < k_; ++r) w(r, m) = f[r];
  }
  w_lu_ = std::make_unique<linalg::LuFactorization>(std::move(w));
  f_.resize(k_);
  g_.resize(k_);

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

void EvpTileSolver::march(const util::Field& y, util::Field& x) const {
  // The guess cells (south row, west column) of x are inputs; everything
  // else is overwritten by the Eq. 4 recurrence.
  const auto& cc = coeff_[D(Dir::kCenter)];
  const auto& ce = coeff_[D(Dir::kEast)];
  const auto& cw = coeff_[D(Dir::kWest)];
  const auto& cn = coeff_[D(Dir::kNorth)];
  const auto& cs = coeff_[D(Dir::kSouth)];
  const auto& cne = coeff_[D(Dir::kNorthEast)];
  const auto& cnw = coeff_[D(Dir::kNorthWest)];
  const auto& cse = coeff_[D(Dir::kSouthEast)];
  const auto& csw = coeff_[D(Dir::kSouthWest)];

  // X(a, b): tile value with zero Dirichlet outside.
  auto X = [&](int a, int b) -> double {
    return (a >= 0 && a < nx_ && b >= 0 && b < ny_) ? x(a, b) : 0.0;
  };
  // Checked form of the recurrence, for cells whose 3x3 read window can
  // leave the tile (the first marching row and column).
  auto step_checked = [&](int a, int b) {
    const int ea = a - 1;
    const int eb = b - 1;
    const int I = ea + 1;  // padded coefficient coordinates
    const int J = eb + 1;
    const double sum =
        cc(I, J) * X(ea, eb) + ce(I, J) * X(ea + 1, eb) +
        cw(I, J) * X(ea - 1, eb) + cn(I, J) * X(ea, eb + 1) +
        cs(I, J) * X(ea, eb - 1) + cnw(I, J) * X(ea - 1, eb + 1) +
        cse(I, J) * X(ea + 1, eb - 1) + csw(I, J) * X(ea - 1, eb - 1);
    x(a, b) = (y(ea, eb) - sum) / cne(I, J);
  };

  // The recurrence at (a, b) reads x(a-2..a, b-2..b): once a, b >= 2
  // every access is in-bounds, so the zero-Dirichlet checks and the
  // per-access index arithmetic are dead weight on the (serial)
  // dependent chain. Peel the checked boundary and hoist row pointers;
  // the expression and FP order are identical to the checked form, so
  // results are bit-for-bit unchanged.
  const std::ptrdiff_t cp = cc.nx();  // padded coefficient pitch
  for (int b = 1; b < ny_; ++b) {
    if (b == 1 || nx_ == 1) {  // 1-wide tiles have no interior column
      for (int a = 1; a < nx_; ++a) step_checked(a, b);
      continue;
    }
    step_checked(1, b);
    const std::ptrdiff_t J = b;  // = eb + 1
    const double* ccJ = cc.data() + J * cp;
    const double* ceJ = ce.data() + J * cp;
    const double* cwJ = cw.data() + J * cp;
    const double* cnJ = cn.data() + J * cp;
    const double* csJ = cs.data() + J * cp;
    const double* cneJ = cne.data() + J * cp;
    const double* cnwJ = cnw.data() + J * cp;
    const double* cseJ = cse.data() + J * cp;
    const double* cswJ = csw.data() + J * cp;
    const double* yb = y.data() + static_cast<std::ptrdiff_t>(b - 1) * nx_;
    double* xb = x.data() + static_cast<std::ptrdiff_t>(b) * nx_;
    const double* xb1 = xb - nx_;      // e-row eb (= tile row b - 1)
    const double* xb2 = xb - 2 * nx_;  // tile row b - 2
    for (int a = 2; a < nx_; ++a) {
      const int ea = a - 1;
      const double sum =
          ccJ[a] * xb1[ea] + ceJ[a] * xb1[ea + 1] + cwJ[a] * xb1[ea - 1] +
          cnJ[a] * xb[ea] + csJ[a] * xb2[ea] + cnwJ[a] * xb[ea - 1] +
          cseJ[a] * xb2[ea + 1] + cswJ[a] * xb2[ea - 1];
      xb[a] = (yb[ea] - sum) / cneJ[a];
    }
  }
}

void EvpTileSolver::apply_operator(const util::Field& in,
                                   util::Field& out) const {
  MINIPOP_REQUIRE(in.nx() == nx_ && in.ny() == ny_, "tile shape mismatch");
  if (out.nx() != nx_ || out.ny() != ny_) out = util::Field(nx_, ny_);
  auto X = [&](int a, int b) -> double {
    return (a >= 0 && a < nx_ && b >= 0 && b < ny_) ? in(a, b) : 0.0;
  };
  for (int b = 0; b < ny_; ++b)
    for (int a = 0; a < nx_; ++a) {
      double acc = 0.0;
      for (int d = 0; d < grid::kNumDirs; ++d) {
        const auto [di, dj] = grid::kDirOffset[d];
        acc += coeff_[d](a + 1, b + 1) * X(a + di, b + dj);
      }
      out(a, b) = acc;
    }
}

void EvpTileSolver::residual_at_f(const util::Field& x, const util::Field& y,
                                  std::vector<double>& f) const {
  f.resize(k_);
  auto X = [&](int a, int b) -> double {
    return (a >= 0 && a < nx_ && b >= 0 && b < ny_) ? x(a, b) : 0.0;
  };
  auto row_residual = [&](int a, int b) -> double {
    double acc = -y(a, b);
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const auto [di, dj] = grid::kDirOffset[d];
      acc += coeff_[d](a + 1, b + 1) * X(a + di, b + dj);
    }
    return acc;
  };
  for (int a = 0; a < nx_; ++a) f[a] = row_residual(a, ny_ - 1);
  for (int b = 0; b + 1 < ny_; ++b) f[nx_ + b] = row_residual(nx_ - 1, b);
}

void EvpTileSolver::solve(const util::Field& y, util::Field& x) const {
  MINIPOP_REQUIRE(y.nx() == nx_ && y.ny() == ny_, "tile rhs shape mismatch");
  if (x.nx() != nx_ || x.ny() != ny_) x = util::Field(nx_, ny_);

  // Algorithm 3, solving phase: march with zero guess, correct the guess
  // by -W^{-1} F, march again.
  x.fill(0.0);
  march(y, x);
  residual_at_f(x, y, f_);
  w_lu_->solve_into(f_.data(), g_.data());
  for (int m = 0; m < k_; ++m) {
    if (m < nx_)
      x(m, 0) = -g_[m];
    else
      x(0, m - nx_ + 1) = -g_[m];
  }
  march(y, x);
}

std::uint64_t EvpTileSolver::solve_flops() const {
  const std::uint64_t pts = static_cast<std::uint64_t>(nx_) * ny_;
  // Paper counting: two marches + the k x k correction solve, i.e.
  // ~22 n^2 full, ~14 n^2 simplified (§4.2-4.3).
  return 2 * (simplified_ ? 5u : 9u) * pts +
         static_cast<std::uint64_t>(k_) * k_;
}

}  // namespace minipop::evp
