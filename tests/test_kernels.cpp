// Equivalence tests for the raw-pointer hot-path kernels
// (src/solver/kernels.*) against naive reference loops — swept over an
// all-ocean span plan (one full span per row) or the plan of a random
// land mask — plus the fused DistOperator/field_ops entry points built
// on them, plus a regression pinning the solver iteration counts and
// residuals on the seed problem.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/kernels.hpp"
#include "src/solver/lanczos.hpp"
#include "src/solver/span_plan.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;
namespace mk = minipop::solver::kernels;

namespace {

/// One interior nx*ny array with an h-wide halo ring, randomly filled
/// everywhere (halo included, so the stencil reads non-trivial values).
struct Padded {
  int nx = 0, ny = 0, h = 0;
  std::ptrdiff_t pitch = 0;
  std::vector<double> v;

  Padded(int nx_, int ny_, int h_, mu::Xoshiro256& rng)
      : nx(nx_), ny(ny_), h(h_), pitch(nx_ + 2 * h_) {
    v.resize(static_cast<std::size_t>(pitch) * (ny + 2 * h));
    for (auto& x : v) x = rng.uniform(-1, 1);
  }
  double* interior() { return v.data() + static_cast<std::ptrdiff_t>(h) * pitch + h; }
  const double* interior() const {
    return v.data() + static_cast<std::ptrdiff_t>(h) * pitch + h;
  }
};

struct Coeffs {
  int nx = 0, ny = 0;
  std::vector<double> c[9];

  Coeffs(int nx_, int ny_, mu::Xoshiro256& rng) : nx(nx_), ny(ny_) {
    for (auto& d : c) {
      d.resize(static_cast<std::size_t>(nx) * ny);
      for (auto& x : d) x = rng.uniform(-1, 1);
    }
  }
  mk::Stencil9 view() const {
    return mk::Stencil9{c[0].data(), c[1].data(), c[2].data(), c[3].data(),
                        c[4].data(), c[5].data(), c[6].data(), c[7].data(),
                        c[8].data(), nx};
  }
};

std::vector<unsigned char> random_mask(int nx, int ny, mu::Xoshiro256& rng) {
  std::vector<unsigned char> m(static_cast<std::size_t>(nx) * ny);
  for (auto& b : m) b = rng.uniform(0, 1) < 0.8 ? 1 : 0;
  return m;
}

/// Span plan of an nx-pitch mask plane.
ms::BlockSpans spans_of(const std::vector<unsigned char>& m, int nx,
                        int ny) {
  return ms::BlockSpans(m.data(), nx, nx, ny);
}

/// All-ocean plan: one full span per row, the dense sweep.
ms::BlockSpans dense_spans(int nx, int ny) {
  return spans_of(
      std::vector<unsigned char>(static_cast<std::size_t>(nx) * ny, 1), nx,
      ny);
}

/// Width-1 dot of two padded planes over `sp`, continuing from `sum`.
template <class P>
double span_dot(const ms::BlockSpans& sp, const P& a, const P& b,
                double sum) {
  mk::dot(sp.row_offset(), sp.spans(), 1, sp.ny(), a.interior(), a.pitch,
          b.interior(), b.pitch, &sum);
  return sum;
}

// Naive seed-style loops the kernels must reproduce. Plain 2D index
// arithmetic, branchy masking, one running accumulator — exactly how the
// pre-kernel implementation was written.
namespace reference {

double point9(const Coeffs& c, const Padded& x, int i, int j) {
  const std::ptrdiff_t p = x.pitch;
  const double* xd = x.interior();
  const std::size_t k = static_cast<std::size_t>(j) * c.nx + i;
  return c.c[0][k] * xd[j * p + i] + c.c[1][k] * xd[j * p + i + 1] +
         c.c[2][k] * xd[j * p + i - 1] + c.c[3][k] * xd[(j + 1) * p + i] +
         c.c[4][k] * xd[(j - 1) * p + i] +
         c.c[5][k] * xd[(j + 1) * p + i + 1] +
         c.c[6][k] * xd[(j + 1) * p + i - 1] +
         c.c[7][k] * xd[(j - 1) * p + i + 1] +
         c.c[8][k] * xd[(j - 1) * p + i - 1];
}

void apply9(const Coeffs& c, const Padded& x, Padded& y) {
  for (int j = 0; j < c.ny; ++j)
    for (int i = 0; i < c.nx; ++i)
      y.interior()[j * y.pitch + i] = point9(c, x, i, j);
}

void residual9(const Coeffs& c, const Padded& b, const Padded& x,
               Padded& r) {
  for (int j = 0; j < c.ny; ++j)
    for (int i = 0; i < c.nx; ++i)
      r.interior()[j * r.pitch + i] =
          b.interior()[j * b.pitch + i] - point9(c, x, i, j);
}

double masked_dot(const std::vector<unsigned char>& m, int nx, int ny,
                  const Padded& a, const Padded& b, double sum = 0.0) {
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (m[static_cast<std::size_t>(j) * nx + i])
        sum += a.interior()[j * a.pitch + i] * b.interior()[j * b.pitch + i];
  return sum;
}

void lincomb(double a, const Padded& x, double b, Padded& y) {
  for (int j = 0; j < y.ny; ++j)
    for (int i = 0; i < y.nx; ++i) {
      double& yv = y.interior()[j * y.pitch + i];
      yv = a * x.interior()[j * x.pitch + i] + b * yv;
    }
}

void axpy(double a, const Padded& x, Padded& y) {
  for (int j = 0; j < y.ny; ++j)
    for (int i = 0; i < y.nx; ++i)
      y.interior()[j * y.pitch + i] += a * x.interior()[j * x.pitch + i];
}

}  // namespace reference

/// Bitwise equality of two interiors, at every cell or (with a mask)
/// at ocean cells only.
template <class P>
bool same_interior(const P& a, const P& b,
                   const std::vector<unsigned char>& mask = {}) {
  for (int j = 0; j < a.ny; ++j)
    for (int i = 0; i < a.nx; ++i)
      if ((mask.empty() || mask[static_cast<std::size_t>(j) * a.nx + i]) &&
          std::memcmp(&a.interior()[j * a.pitch + i],
                      &b.interior()[j * b.pitch + i],
                      sizeof(a.v[0])) != 0)
        return false;
  return true;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Case {
  int nx, ny, h;
};

// Odd and even interior shapes (including vector-width non-multiples and
// a single-digit nx that defeats any vector body) at both halo widths.
const Case kCases[] = {{7, 5, 1},  {7, 5, 2},   {16, 16, 1}, {33, 17, 2},
                       {64, 48, 1}, {5, 64, 2}, {31, 1, 1},  {1, 9, 2}};

TEST(Kernels, Apply9MatchesReferenceBitwise) {
  for (const auto& tc : kCases) {
    mu::Xoshiro256 rng(11 + tc.nx * 100 + tc.ny + tc.h);
    Coeffs c(tc.nx, tc.ny, rng);
    Padded x(tc.nx, tc.ny, tc.h, rng), y(tc.nx, tc.ny, tc.h, rng),
        yref(tc.nx, tc.ny, tc.h, rng);
    const ms::BlockSpans full = dense_spans(tc.nx, tc.ny);
    mk::apply9(c.view(), full.row_offset(), full.spans(), 1, tc.ny,
               x.interior(), x.pitch, y.interior(), y.pitch);
    reference::apply9(c, x, yref);
    EXPECT_TRUE(same_interior(y, yref))
        << "nx=" << tc.nx << " ny=" << tc.ny << " h=" << tc.h;
  }
}

TEST(Kernels, Residual9MatchesReferenceBitwise) {
  for (const auto& tc : kCases) {
    mu::Xoshiro256 rng(23 + tc.nx * 100 + tc.ny + tc.h);
    Coeffs c(tc.nx, tc.ny, rng);
    Padded b(tc.nx, tc.ny, tc.h, rng), x(tc.nx, tc.ny, tc.h, rng),
        r(tc.nx, tc.ny, tc.h, rng), rref(tc.nx, tc.ny, tc.h, rng);
    const ms::BlockSpans full = dense_spans(tc.nx, tc.ny);
    mk::residual9(c.view(), full.row_offset(), full.spans(), 1, tc.ny,
                  b.interior(), b.pitch, x.interior(), x.pitch,
                  r.interior(), r.pitch);
    reference::residual9(c, b, x, rref);
    EXPECT_TRUE(same_interior(r, rref))
        << "nx=" << tc.nx << " ny=" << tc.ny << " h=" << tc.h;
  }
}

TEST(Kernels, ResidualNorm2FusesResidualAndDot) {
  for (const auto& tc : kCases) {
    mu::Xoshiro256 rng(37 + tc.nx * 100 + tc.ny + tc.h);
    Coeffs c(tc.nx, tc.ny, rng);
    auto m = random_mask(tc.nx, tc.ny, rng);
    Padded b(tc.nx, tc.ny, tc.h, rng), x(tc.nx, tc.ny, tc.h, rng),
        r(tc.nx, tc.ny, tc.h, rng), rref(tc.nx, tc.ny, tc.h, rng);
    const double start = 3.25;  // continues an accumulator mid-stream
    const ms::BlockSpans sp = spans_of(m, tc.nx, tc.ny);
    double n2 = start;
    mk::residual_norm2_9(c.view(), sp.row_offset(), sp.spans(), 1, tc.ny,
                         b.interior(), b.pitch, x.interior(), x.pitch,
                         r.interior(), r.pitch, &n2);
    reference::residual9(c, b, x, rref);
    const double n2ref =
        reference::masked_dot(m, tc.nx, tc.ny, rref, rref, start);
    // The span sweep writes ocean cells only.
    EXPECT_TRUE(same_interior(r, rref, m));
    ASSERT_NE(n2ref, start);  // mask never kills every cell at 80% ocean
    EXPECT_NEAR(n2, n2ref, 1e-14 * std::abs(n2ref));
  }
}

TEST(Kernels, MaskedDotMatchesReference) {
  for (const auto& tc : kCases) {
    mu::Xoshiro256 rng(41 + tc.nx * 100 + tc.ny + tc.h);
    auto m = random_mask(tc.nx, tc.ny, rng);
    Padded a(tc.nx, tc.ny, tc.h, rng), b(tc.nx, tc.ny, tc.h, rng);
    const double start = -1.5;
    const double got = span_dot(spans_of(m, tc.nx, tc.ny), a, b, start);
    const double want = reference::masked_dot(m, tc.nx, tc.ny, a, b, start);
    EXPECT_NEAR(got, want, 1e-14 * std::max(1.0, std::abs(want)));
  }
}

TEST(Kernels, MaskedDot3MatchesThreeMaskedDots) {
  for (const auto& tc : kCases) {
    for (bool with_norm : {false, true}) {
      mu::Xoshiro256 rng(53 + tc.nx * 100 + tc.ny + tc.h + with_norm);
      auto m = random_mask(tc.nx, tc.ny, rng);
      Padded r(tc.nx, tc.ny, tc.h, rng), rp(tc.nx, tc.ny, tc.h, rng),
          z(tc.nx, tc.ny, tc.h, rng);
      const ms::BlockSpans sp = spans_of(m, tc.nx, tc.ny);
      double out[3] = {0.5, -0.25, 1.0};  // continues prior partial sums
      const double d0 = span_dot(sp, r, rp, out[0]);
      const double d1 = span_dot(sp, z, rp, out[1]);
      const double d2 = with_norm ? span_dot(sp, r, r, out[2]) : out[2];
      mk::dot3(sp.row_offset(), sp.spans(), 1, tc.ny, r.interior(), r.pitch,
               rp.interior(), rp.pitch, z.interior(), z.pitch, with_norm,
               out);
      // Fusing the sweeps must not change any accumulator's add order.
      EXPECT_TRUE(bitwise_equal(out[0], d0));
      EXPECT_TRUE(bitwise_equal(out[1], d1));
      EXPECT_TRUE(bitwise_equal(out[2], d2));
    }
  }
}

TEST(Kernels, LincombAxpyFusedMatchesUnfusedBitwise) {
  for (const auto& tc : kCases) {
    mu::Xoshiro256 rng(67 + tc.nx * 100 + tc.ny + tc.h);
    Padded x(tc.nx, tc.ny, tc.h, rng), y(tc.nx, tc.ny, tc.h, rng),
        z(tc.nx, tc.ny, tc.h, rng);
    Padded yref = y, zref = z;
    const double a = 0.7, b = -1.3, cc = 0.31;
    const ms::BlockSpans full = dense_spans(tc.nx, tc.ny);
    mk::lincomb_axpy(full.row_offset(), full.spans(), 1, tc.ny, &a,
                     x.interior(), x.pitch, &b, y.interior(), y.pitch, &cc,
                     z.interior(), z.pitch, nullptr);
    reference::lincomb(a, x, b, yref);
    reference::axpy(cc, yref, zref);
    EXPECT_TRUE(same_interior(y, yref));
    EXPECT_TRUE(same_interior(z, zref));
  }
}

TEST(Kernels, LincombAndAxpyAndScaleMatchReference) {
  for (const auto& tc : kCases) {
    mu::Xoshiro256 rng(71 + tc.nx * 100 + tc.ny + tc.h);
    Padded x(tc.nx, tc.ny, tc.h, rng), y(tc.nx, tc.ny, tc.h, rng);
    Padded yref = y;
    const ms::BlockSpans full = dense_spans(tc.nx, tc.ny);
    const int* ro = full.row_offset();
    const double a = 1.25, b = -0.5, c = -2.0, d = 0.125;
    mk::lincomb(ro, full.spans(), 1, tc.ny, &a, x.interior(), x.pitch, &b,
                y.interior(), y.pitch, nullptr);
    reference::lincomb(a, x, b, yref);
    EXPECT_TRUE(same_interior(y, yref));

    mk::axpy(ro, full.spans(), 1, tc.ny, &c, x.interior(), x.pitch,
             y.interior(), y.pitch, nullptr);
    reference::axpy(c, x, yref);
    EXPECT_TRUE(same_interior(y, yref));

    Padded s = y, sref = y;
    mk::scale(ro, full.spans(), 1, tc.ny, &d, s.interior(), s.pitch,
              nullptr);
    for (int j = 0; j < tc.ny; ++j)
      for (int i = 0; i < tc.nx; ++i)
        sref.interior()[j * sref.pitch + i] *= 0.125;
    EXPECT_TRUE(same_interior(s, sref));
  }
}

TEST(Kernels, CopyFillMaskZeroTouchInteriorOnly) {
  mu::Xoshiro256 rng(83);
  const int nx = 13, ny = 7, h = 2;
  Padded x(nx, ny, h, rng), y(nx, ny, h, rng);
  const Padded y_before = y;
  mk::copy(1, nx, ny, x.interior(), x.pitch, y.interior(), y.pitch);
  EXPECT_TRUE(same_interior(y, x));
  // Halo ring untouched by the row-wise memcpy.
  for (std::size_t k = 0; k < y.v.size(); ++k) {
    const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(k) / y.pitch - h;
    const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(k) % y.pitch - h;
    if (i < 0 || i >= nx || j < 0 || j >= ny) {
      EXPECT_EQ(y.v[k], y_before.v[k]) << "halo touched at " << k;
    }
  }

  mk::fill(1, nx, ny, 7.5, y.interior(), y.pitch);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      EXPECT_EQ(y.interior()[j * y.pitch + i], 7.5);

  auto m = random_mask(nx, ny, rng);
  const ms::BlockSpans sp = spans_of(m, nx, ny);
  mk::mask_zero(sp.row_offset(), sp.spans(), 1, nx, ny, y.interior(),
                y.pitch);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      EXPECT_EQ(y.interior()[j * y.pitch + i],
                m[static_cast<std::size_t>(j) * nx + i] ? 7.5 : 0.0);
}

// ---------------------------------------------------------------------
// DistOperator / field_ops level: the fused entry points must agree with
// their unfused compositions bitwise on a real masked multi-block
// decomposition (the association of the across-block accumulation is
// part of the contract).

struct OpProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
};

OpProblem make_op_problem(int nx, int ny, int block) {
  OpProblem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  p.stencil = std::make_unique<mg::NinePointStencil>(
      *p.grid, p.depth, mg::barotropic_phi(600.0));
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, false, p.stencil->mask(), block, block, 1);
  return p;
}

void load_random(const mg::NinePointStencil& st, mc::DistField& f,
                 mu::Xoshiro256& rng) {
  mu::Field g(st.nx(), st.ny(), 0.0);
  for (int j = 0; j < st.ny(); ++j)
    for (int i = 0; i < st.nx(); ++i)
      if (st.mask()(i, j)) g(i, j) = rng.uniform(-1, 1);
  f.load_global(g);
}

TEST(DistOperatorFused, ResidualNorm2EqualsResidualThenDot) {
  auto p = make_op_problem(24, 20, 8);  // 3x3 blocks — association matters
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  mu::Xoshiro256 rng(7);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0), r1(*p.decomp, 0),
      r2(*p.decomp, 0);
  load_random(*p.stencil, b, rng);
  load_random(*p.stencil, x, rng);

  a.residual(comm, halo, b, x, r1);
  const double n_unfused = a.local_dot(comm, r1, r1);
  // The fused sweep is batch-only: run it on width-1 batches.
  mc::DistFieldBatch bb(*p.decomp, 0, 1), xb(*p.decomp, 0, 1),
      rb(*p.decomp, 0, 1);
  bb.load_member(0, b);
  xb.load_member(0, x);
  double n_fused = 0.0;
  a.residual_local_norm2_batch(comm, halo, bb, xb, rb, &n_fused);
  rb.store_member(0, r2);
  EXPECT_TRUE(bitwise_equal(n_fused, n_unfused));
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = r1.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        ASSERT_TRUE(bitwise_equal(r1.at(lb, i, j), r2.at(lb, i, j)));
  }
}

TEST(DistOperatorFused, LocalDot3EqualsThreeLocalDots) {
  auto p = make_op_problem(24, 20, 8);
  mc::SerialComm comm;
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  mu::Xoshiro256 rng(9);
  mc::DistField r(*p.decomp, 0), rp(*p.decomp, 0), z(*p.decomp, 0);
  load_random(*p.stencil, r, rng);
  load_random(*p.stencil, rp, rng);
  load_random(*p.stencil, z, rng);

  for (bool with_norm : {false, true}) {
    double out[3];
    a.local_dot3(comm, r, rp, z, with_norm, out);
    EXPECT_TRUE(bitwise_equal(out[0], a.local_dot(comm, r, rp)));
    EXPECT_TRUE(bitwise_equal(out[1], a.local_dot(comm, z, rp)));
    if (with_norm)
      EXPECT_TRUE(bitwise_equal(out[2], a.local_dot(comm, r, r)));
    else
      EXPECT_EQ(out[2], 0.0);
  }
}

TEST(DistOperatorFused, LocalDotCarriesOneAccumulatorAcrossBlocks) {
  // Regression: summing per-block partials and then adding them is a
  // different FP association than the seed's single running accumulator.
  auto p = make_op_problem(24, 20, 8);
  mc::SerialComm comm;
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ASSERT_GT(a.num_local_blocks(), 1);
  mu::Xoshiro256 rng(13);
  mc::DistField u(*p.decomp, 0), v(*p.decomp, 0);
  load_random(*p.stencil, u, rng);
  load_random(*p.stencil, v, rng);

  double want = 0.0;
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = u.info(lb);
    const auto& mask = a.block_mask(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (mask(i, j)) want += u.at(lb, i, j) * v.at(lb, i, j);
  }
  EXPECT_TRUE(bitwise_equal(a.local_dot(comm, u, v), want));
}

TEST(FieldOpsFused, LincombAxpyEqualsLincombThenAxpy) {
  auto p = make_op_problem(24, 20, 8);
  mc::SerialComm comm;
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  mu::Xoshiro256 rng(17);
  mc::DistField x(*p.decomp, 0), y1(*p.decomp, 0), z1(*p.decomp, 0);
  load_random(*p.stencil, x, rng);
  load_random(*p.stencil, y1, rng);
  load_random(*p.stencil, z1, rng);
  mc::DistField y2 = y1, z2 = z1;

  ms::lincomb(comm, 0.9, x, -0.4, y1, a.span_plan());
  ms::axpy(comm, 1.7, y1, z1, a.span_plan());
  ms::lincomb_axpy(comm, 0.9, x, -0.4, y2, 1.7, z2, a.span_plan());
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        ASSERT_TRUE(bitwise_equal(y1.at(lb, i, j), y2.at(lb, i, j)));
        ASSERT_TRUE(bitwise_equal(z1.at(lb, i, j), z2.at(lb, i, j)));
      }
  }
}

// ---------------------------------------------------------------------
// Solver regression on the seed test problem: the kernel rewrite must
// not change a single iteration or the converged residuals.

TEST(KernelRegression, SolverIterationCountsUnchangedOnSeedProblem) {
  auto p = make_op_problem(24, 20, 8);
  mu::Xoshiro256 rng(5);
  mu::Field bg(24, 20, 0.0);
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 24; ++i)
      if (p.stencil->mask()(i, j)) bg(i, j) = rng.uniform(-1, 1);

  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(a);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;

  {
    mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
    b.load_global(bg);
    ms::BatchedChronGearSolver cg(opt);
    auto s = ms::solve_one(cg, comm, halo, a, m, b, x);
    ASSERT_TRUE(s.converged);
    EXPECT_EQ(s.iterations, 110);  // seed value
    EXPECT_DOUBLE_EQ(s.relative_residual, 5.795712271592336e-12);
  }
  {
    ms::LanczosOptions lopt;
    lopt.rel_tolerance = 0.02;
    const auto bounds =
        ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
    EXPECT_DOUBLE_EQ(bounds.nu, 0.0080900175145003188);  // seed value
    EXPECT_DOUBLE_EQ(bounds.mu, 2.4667253749083407);

    mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
    b.load_global(bg);
    ms::BatchedPcsiSolver pcsi(bounds, opt);
    auto s = ms::solve_one(pcsi, comm, halo, a, m, b, x);
    ASSERT_TRUE(s.converged);
    EXPECT_EQ(s.iterations, 210);  // seed value
    EXPECT_DOUBLE_EQ(s.relative_residual, 6.9164185356193306e-11);
  }
}

}  // namespace
