// Land-span execution plans (DESIGN.md §14): structural properties of
// BlockSpans on adversarial randomized masks, and the bitwise-identity
// contract of the span kernels against the masked reference family
// (kernels_masked.hpp) — width 1 and B=4 batches, halo depths 1 and 2,
// through the actual DistOperator / preconditioner /
// field-ops plumbing — and golden pins of full solver runs (P-CSI,
// ChronGear, and the depth-2 comm-avoiding schedule) recorded with the
// masked kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/kernels.hpp"
#include "src/solver/kernels_masked.hpp"
#include "src/solver/lanczos.hpp"
#include "src/solver/preconditioner.hpp"
#include "src/solver/span_plan.hpp"
#include "src/util/rng.hpp"
#include "tests/golden_pin.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;
namespace mk = minipop::solver::kernels;

namespace {

// -------------------------------------------------------------------
// Adversarial mask generator: random ocean/land plus every feature the
// run-length encoder has to survive — an all-land row crossing active
// blocks, a full-ocean row, isolated 1-cell spans, and (via the odd
// grid/block sizes the tests pick) narrow ragged edge blocks.
// -------------------------------------------------------------------

mu::MaskArray feature_mask(int nx, int ny, std::uint64_t seed,
                           double p_ocean) {
  mu::Xoshiro256 rng(seed);
  mu::MaskArray m(nx, ny, 0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      m(i, j) = rng.uniform() < p_ocean ? 1 : 0;
  // Full-ocean row, and an all-land row crossing every active block of
  // its block row.
  for (int i = 0; i < nx; ++i) {
    m(i, ny / 2) = 1;
    if (ny > 4) m(i, ny / 3) = 0;
  }
  // Isolated 1-cell spans: ocean cells with land on both x-neighbors.
  if (ny > 2) {
    for (int i = 0; i < nx; ++i) m(i, 1) = 0;
    for (int i = 1; i + 1 < nx; i += 4) m(i, 1) = 1;
  }
  // Keep at least one ocean cell so the decomposition has active blocks.
  m(nx / 2, ny / 2) = 1;
  return m;
}

long count_mask(const mu::MaskArray& m) {
  long n = 0;
  for (unsigned char v : m) n += v;
  return n;
}

// A full problem (grid/stencil/decomposition) whose ocean geometry IS a
// feature mask: depth is positive exactly on the mask's ocean cells.
struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

Problem make_problem(int nx, int ny, int block, int nranks,
                     std::uint64_t seed) {
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  const mu::MaskArray m = feature_mask(nx, ny, seed, 0.6);
  p.depth = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (m(i, j)) p.depth(i, j) = 3000.0 + 100.0 * ((i + j) % 7);
  p.stencil = std::make_unique<mg::NinePointStencil>(
      *p.grid, p.depth, mg::barotropic_phi(600.0));
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, false, p.stencil->mask(), block, block, nranks);
  mu::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  p.b_global = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

ms::EigenBounds lanczos_bounds_serial(const Problem& p,
                                      mc::CostCounters* costs = nullptr) {
  mg::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                       p.stencil->periodic_x(), p.stencil->mask(),
                       p.stencil->nx(), p.stencil->ny(), 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(d1);
  ms::DistOperator a(*p.stencil, d1, 0);
  ms::DiagonalPreconditioner m(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  const ms::EigenBounds bounds =
      ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
  if (costs != nullptr) *costs = comm.costs().counters();
  return bounds;
}

}  // namespace

// -------------------------------------------------------------------
// Structure: the run-length encoding reconstructs the mask exactly and
// validate() accepts it.
// -------------------------------------------------------------------

TEST(SpanPlan, StructureReconstructsRandomFeatureMasks) {
  const std::pair<int, int> shapes[] = {{19, 13}, {1, 7}, {8, 1}, {23, 17}};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto [nx, ny] : shapes) {
      const double p = 0.15 * static_cast<double>(seed);
      const mu::MaskArray m = feature_mask(nx, ny, seed, p);
      ms::BlockSpans bs(m.data(), m.nx(), nx, ny);
      bs.validate(m.data(), m.nx());
      EXPECT_EQ(bs.active_points(), count_mask(m));
      EXPECT_EQ(bs.full(), count_mask(m) == static_cast<long>(nx) * ny);
      // Reconstruct the mask from the spans.
      mu::MaskArray rec(nx, ny, 0);
      const int* ro = bs.row_offset();
      for (int j = 0; j < ny; ++j)
        for (int s = ro[j]; s < ro[j + 1]; ++s)
          for (int i = 0; i < bs.spans()[s].len; ++i)
            rec(bs.spans()[s].i0 + i, j) = 1;
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i)
          ASSERT_EQ(rec(i, j), m(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

// -------------------------------------------------------------------
// Kernel-level bitwise identity on raw planes: span kernels vs the
// masked reference family, width 1 and B=4, on the adversarial masks.
// Reductions and gap-zero kernels must agree everywhere; pure-skip
// updates must agree at ocean cells and leave land untouched.
// -------------------------------------------------------------------

namespace {

void kernel_identity_case(std::uint64_t seed, double p_ocean) {
  const int nx = 19, ny = 11, nb = 4;
  const mu::MaskArray m = feature_mask(nx, ny, seed, p_ocean);
  const ms::BlockSpans bs(m.data(), m.nx(), nx, ny);
  const int* ro = bs.row_offset();
  const mk::Span* sp = bs.spans();

  mu::Xoshiro256 rng(seed * 31 + 7);
  const std::ptrdiff_t st = nx * nb;  // batched plane stride
  auto rand_plane = [&](bool land_zero) {
    std::vector<double> v(static_cast<std::size_t>(nx) * ny * nb);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        for (int mm = 0; mm < nb; ++mm)
          v[j * st + i * nb + mm] =
              (land_zero && !m(i, j)) ? 0.0 : rng.uniform(-1, 1);
    return v;
  };

  // --- reductions: dot, sum, dot_shared, dot3 -----------------------
  const std::vector<double> a = rand_plane(false), b = rand_plane(false),
                            z = rand_plane(false);
  std::vector<double> cshared(static_cast<std::size_t>(nx) * ny);
  for (double& v : cshared) v = rng.uniform(-1, 1);

  {  // width-1 forms on densely packed member-0 planes
    std::vector<double> a1(static_cast<std::size_t>(nx) * ny), b1(a1.size()),
        z1(a1.size());
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        a1[j * nx + i] = a[j * st + i * nb];
        b1[j * nx + i] = b[j * st + i * nb];
        z1[j * nx + i] = z[j * st + i * nb];
      }
    double ref = 0.3125, got = 0.3125;  // exercise sum0 continuation
    mk::masked::dot(m.data(), m.nx(), 1, nx, ny, a1.data(), nx, b1.data(),
                    nx, &ref);
    mk::dot(ro, sp, 1, ny, a1.data(), nx, b1.data(), nx, &got);
    EXPECT_EQ(ref, got);
    ref = got = 0.3125;
    mk::masked::sum(m.data(), m.nx(), 1, nx, ny, a1.data(), nx, &ref);
    mk::sum(ro, sp, 1, ny, a1.data(), nx, &got);
    EXPECT_EQ(ref, got);
    ref = got = 0.3125;
    mk::masked::dot_shared(m.data(), m.nx(), 1, nx, ny, cshared.data(), nx,
                           a1.data(), nx, &ref);
    mk::dot_shared(ro, sp, 1, ny, cshared.data(), nx, a1.data(), nx, &got);
    EXPECT_EQ(ref, got);
    double ref3[3] = {0.5, -0.25, 0.125}, got3[3] = {0.5, -0.25, 0.125};
    mk::masked::dot3(m.data(), m.nx(), 1, nx, ny, a1.data(), nx, b1.data(),
                     nx, z1.data(), nx, true, ref3);
    mk::dot3(ro, sp, 1, ny, a1.data(), nx, b1.data(), nx, z1.data(), nx,
             true, got3);
    for (int k = 0; k < 3; ++k) EXPECT_EQ(ref3[k], got3[k]);
  }
  {  // batched reductions
    std::vector<double> ref(nb, 0.75), got(nb, 0.75);
    mk::masked::dot(m.data(), m.nx(), nb, nx, ny, a.data(), st, b.data(),
                    st, ref.data());
    mk::dot(ro, sp, nb, ny, a.data(), st, b.data(), st, got.data());
    for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(ref[mm], got[mm]);
    std::vector<double> ref3(3 * nb, 0.5), got3(3 * nb, 0.5);
    mk::masked::dot3(m.data(), m.nx(), nb, nx, ny, a.data(), st, b.data(),
                     st, z.data(), st, true, ref3.data());
    mk::dot3(ro, sp, nb, ny, a.data(), st, b.data(), st, z.data(), st, true,
             got3.data());
    for (int k = 0; k < 3 * nb; ++k) EXPECT_EQ(ref3[k], got3[k]);
    std::vector<double> refs(nb, -0.5), gots(nb, -0.5);
    mk::masked::sum(m.data(), m.nx(), nb, nx, ny, a.data(), st,
                    refs.data());
    mk::sum(ro, sp, nb, ny, a.data(), st, gots.data());
    for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(refs[mm], gots[mm]);
  }

  // --- gap-zero kernels: identical planes everywhere ----------------
  {
    std::vector<double> inv(static_cast<std::size_t>(nx) * ny, 0.0);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        if (m(i, j)) inv[j * nx + i] = rng.uniform(1, 2);
    const std::vector<double> in = rand_plane(false);
    std::vector<double> ref(in.size(), 7.0), got(in.size(), 7.0);
    mk::masked::diag_apply(inv.data(), nx, nb, nx, ny, in.data(), st,
                           ref.data(), st);
    mk::diag_apply(inv.data(), nx, ro, sp, nb, nx, ny, in.data(), st,
                   got.data(), st);
    EXPECT_EQ(ref, got);

    std::fill(ref.begin(), ref.end(), 7.0);
    std::fill(got.begin(), got.end(), 7.0);
    mk::masked::masked_copy(m.data(), m.nx(), nb, nx, ny, in.data(), st,
                            ref.data(), st);
    mk::masked_copy(ro, sp, nb, nx, ny, in.data(), st, got.data(), st);
    EXPECT_EQ(ref, got);

    std::vector<double> x_ref = rand_plane(false);
    std::vector<double> x_got = x_ref;
    mk::masked::mask_zero(m.data(), m.nx(), nb, nx, ny, x_ref.data(), st);
    mk::mask_zero(ro, sp, nb, nx, ny, x_got.data(), st);
    EXPECT_EQ(x_ref, x_got);
  }

  // --- pure-skip updates: ocean cells bit-equal, land untouched -----
  {
    const std::vector<unsigned char> active(nb, 1);
    std::vector<double> ca(nb), cb(nb), cc(nb);
    for (int mm = 0; mm < nb; ++mm) {
      ca[mm] = rng.uniform(-2, 2);
      cb[mm] = rng.uniform(-2, 2);
      cc[mm] = rng.uniform(-2, 2);
    }
    const std::vector<double> x = rand_plane(false);
    std::vector<double> y_ref = rand_plane(false);
    std::vector<double> y_got = y_ref, z_ref = rand_plane(false);
    std::vector<double> z_got = z_ref;
    const std::vector<double> y0 = y_ref, z0 = z_ref;
    mk::masked::lincomb_axpy(nb, nx, ny, ca.data(), x.data(), st, cb.data(),
                             y_ref.data(), st, cc.data(), z_ref.data(), st,
                             active.data());
    mk::lincomb_axpy(ro, sp, nb, ny, ca.data(), x.data(), st, cb.data(),
                     y_got.data(), st, cc.data(), z_got.data(), st,
                     active.data());
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        for (int mm = 0; mm < nb; ++mm) {
          const std::size_t k = j * st + i * nb + mm;
          if (m(i, j)) {
            ASSERT_EQ(y_ref[k], y_got[k]);
            ASSERT_EQ(z_ref[k], z_got[k]);
          } else {  // span path must not have touched land
            ASSERT_EQ(y_got[k], y0[k]);
            ASSERT_EQ(z_got[k], z0[k]);
          }
        }
  }
}

}  // namespace

TEST(SpanPlan, KernelsBitwiseIdenticalFp64) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed)
    kernel_identity_case(seed, 0.2 * static_cast<double>(seed - 10));
}

// -------------------------------------------------------------------
// Operator-level identity: the operator's span sweeps vs the masked
// reference family run over the same blocks, width-1 fields and B=4
// batches, field halos 1 and 2. Pure-skip outputs compare
// bitwise at ocean cells; gap-zero outputs and reduced scalars compare
// bitwise outright.
// -------------------------------------------------------------------

namespace {

template <typename FieldT>
void expect_ocean_bitwise(const mu::MaskArray& m, const FieldT& a,
                          const FieldT& b) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (m(info.i0 + i, info.j0 + j)) {
          ASSERT_EQ(a.at(lb, i, j), b.at(lb, i, j))
              << "block " << lb << " (" << i << "," << j << ")";
        }
  }
}

template <typename FieldT>
void expect_full_bitwise(const FieldT& a, const FieldT& b) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        ASSERT_EQ(a.at(lb, i, j), b.at(lb, i, j))
            << "block " << lb << " (" << i << "," << j << ")";
  }
}

// The masked reference family swept over every local block of an
// operator — the oracle of the operator-level checks. F is a DistField
// or a batch (a DistField is the width-1 batch); halos must be fresh.

mk::Stencil9 block_stencil(const ms::DistOperator& op, int lb) {
  const auto plane = [&](mg::Dir d) -> const double* {
    return op.block_coeff(lb, d).data();
  };
  return {plane(mg::Dir::kCenter),    plane(mg::Dir::kEast),
          plane(mg::Dir::kWest),      plane(mg::Dir::kNorth),
          plane(mg::Dir::kSouth),     plane(mg::Dir::kNorthEast),
          plane(mg::Dir::kNorthWest), plane(mg::Dir::kSouthEast),
          plane(mg::Dir::kSouthWest), op.block_mask(lb).nx()};
}

template <class F>
void masked_apply(const ms::DistOperator& op, const F& x, F& y) {
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    mk::masked::apply9(block_stencil(op, lb), x.nb(), info.nx, info.ny,
                       x.interior(lb), x.stride(lb), y.interior(lb),
                       y.stride(lb));
  }
}

template <class F>
void masked_residual_norm2(const ms::DistOperator& op, const F& b,
                           const F& x, F& r, double* sums) {
  for (int mm = 0; mm < x.nb(); ++mm) sums[mm] = 0.0;
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    const mu::MaskArray& m = op.block_mask(lb);
    mk::masked::residual_norm2_9(block_stencil(op, lb), m.data(), m.nx(),
                                 x.nb(), info.nx, info.ny, b.interior(lb),
                                 b.stride(lb), x.interior(lb), x.stride(lb),
                                 r.interior(lb), r.stride(lb), sums);
  }
}

template <class F>
void masked_dot(const ms::DistOperator& op, const F& a, const F& b,
                double* sums) {
  for (int mm = 0; mm < a.nb(); ++mm) sums[mm] = 0.0;
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    const mu::MaskArray& m = op.block_mask(lb);
    mk::masked::dot(m.data(), m.nx(), a.nb(), info.nx, info.ny,
                    a.interior(lb), a.stride(lb), b.interior(lb),
                    b.stride(lb), sums);
  }
}

template <class F>
void masked_dot3(const ms::DistOperator& op, const F& r, const F& rp,
                 const F& z, double* out) {
  for (int k = 0; k < 3 * r.nb(); ++k) out[k] = 0.0;
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
    const mu::MaskArray& m = op.block_mask(lb);
    mk::masked::dot3(m.data(), m.nx(), r.nb(), info.nx, info.ny,
                     r.interior(lb), r.stride(lb), rp.interior(lb),
                     rp.stride(lb), z.interior(lb), z.stride(lb), true, out);
  }
}

/// Diagonal preconditioner: inv = 1/diag at ocean (the preconditioner's
/// own expression), 0 on land.
template <class F>
void masked_diag(const ms::DistOperator& op, const F& in, F& out) {
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const mu::MaskArray& m = op.block_mask(lb);
    std::vector<double> inv(static_cast<std::size_t>(info.nx) * info.ny, 0.0);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (m(i, j)) inv[j * info.nx + i] = 1.0 / op.block_diagonal(lb)(i, j);
    mk::masked::diag_apply(inv.data(), info.nx, in.nb(), info.nx, info.ny,
                           in.interior(lb), in.stride(lb), out.interior(lb),
                           out.stride(lb));
  }
}

template <class F>
void masked_identity(const ms::DistOperator& op, const F& in, F& out) {
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const mu::MaskArray& m = op.block_mask(lb);
    mk::masked::masked_copy(m.data(), m.nx(), in.nb(), info.nx, info.ny,
                            in.interior(lb), in.stride(lb), out.interior(lb),
                            out.stride(lb));
  }
}

void operator_identity_case(int halo_width, std::uint64_t seed) {
  const int nx = 26, ny = 18;
  Problem p = make_problem(nx, ny, 7, 1, seed);
  const mu::MaskArray& m = p.stencil->mask();
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  const ms::SpanPlan& plan = op.span_plan();
  ASSERT_EQ(static_cast<int>(plan.size()), op.num_local_blocks());

  using Field = mc::DistField;
  Field x(*p.decomp, 0, halo_width), b(*p.decomp, 0, halo_width);
  mu::Field xg(nx, ny, 0.0);
  mu::Xoshiro256 rng(seed + 99);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (m(i, j)) xg(i, j) = rng.uniform(-1, 1);
  x.load_global(xg);
  b.load_global(p.b_global);
  halo.exchange(comm, x);

  // --- single-field (width-1) sweeps --------------------------------
  {
    // apply (pure skip: ocean cells bit-equal)
    Field y_s(*p.decomp, 0, halo_width), y_m(*p.decomp, 0, halo_width);
    Field xs_copy = x;
    op.apply_batch(comm, halo, xs_copy, y_s);
    masked_apply(op, x, y_m);
    expect_ocean_bitwise(m, y_s, y_m);

    // residual + norm² vs the fused masked sweep — the span residual
    // leaves land at +0.0 (untouched zero), the masked one writes
    // 0 - (+0.0) there, so the planes compare bitwise at EVERY cell, and
    // the reduced norm too.
    Field r_s(*p.decomp, 0, halo_width), r_m(*p.decomp, 0, halo_width);
    xs_copy = x;
    op.residual(comm, halo, b, xs_copy, r_s);
    const double n_s = op.local_dot(comm, r_s, r_s);
    double n_m = 0.0;
    masked_residual_norm2(op, b, x, r_m, &n_m);
    EXPECT_EQ(n_s, n_m);
    expect_full_bitwise(r_s, r_m);

    // reductions
    double d_m = 0.0;
    masked_dot(op, r_m, y_m, &d_m);
    EXPECT_EQ(op.local_dot(comm, r_s, y_s), d_m);
    double d3_s[3], d3_m[3];
    op.local_dot3_batch(comm, r_s, y_s, b, true, d3_s);
    masked_dot3(op, r_m, y_m, b, d3_m);
    for (int k = 0; k < 3; ++k) EXPECT_EQ(d3_s[k], d3_m[k]);

    // preconditioners (gap-zero: full bitwise equality at every cell)
    ms::DiagonalPreconditioner md(op);
    ms::IdentityPreconditioner mi(op);
    Field z_s(*p.decomp, 0, halo_width), z_m(*p.decomp, 0, halo_width);
    md.apply(comm, r_s, z_s);
    masked_diag(op, r_m, z_m);
    expect_full_bitwise(z_s, z_m);
    mi.apply(comm, r_s, z_s);
    masked_identity(op, r_m, z_m);
    expect_full_bitwise(z_s, z_m);

    // field ops over the plan vs the dense masked updates
    Field u_s = r_s, u_m = r_m;
    const double c1 = 1.25, c2 = -0.5, c3 = -0.75, c4 = 0.5, c5 = 1.5,
                 c6 = 2.0, c7 = -1.125;
    const auto each_block = [&](const auto& fn) {
      for (int lb = 0; lb < op.num_local_blocks(); ++lb)
        fn(lb, u_m.info(lb).nx, u_m.info(lb).ny);
    };
    ms::lincomb(comm, &c1, y_s, &c2, u_s, plan);
    each_block([&](int lb, int bx, int by) {
      mk::masked::lincomb(1, bx, by, &c1, y_m.interior(lb), y_m.stride(lb),
                          &c2, u_m.interior(lb), u_m.stride(lb), nullptr);
    });
    expect_ocean_bitwise(m, u_s, u_m);
    ms::axpy(comm, &c3, y_s, u_s, plan);
    each_block([&](int lb, int bx, int by) {
      mk::masked::axpy(1, bx, by, &c3, y_m.interior(lb), y_m.stride(lb),
                       u_m.interior(lb), u_m.stride(lb), nullptr);
    });
    expect_ocean_bitwise(m, u_s, u_m);
    ms::lincomb_axpy(comm, &c4, y_s, &c5, u_s, &c6, z_s, plan);
    each_block([&](int lb, int bx, int by) {
      mk::masked::lincomb_axpy(1, bx, by, &c4, y_m.interior(lb),
                               y_m.stride(lb), &c5, u_m.interior(lb),
                               u_m.stride(lb), &c6, z_m.interior(lb),
                               z_m.stride(lb), nullptr);
    });
    expect_ocean_bitwise(m, u_s, u_m);
    expect_ocean_bitwise(m, z_s, z_m);
    ms::scale(comm, &c7, u_s, plan);
    each_block([&](int lb, int bx, int by) {
      mk::masked::scale(1, bx, by, &c7, u_m.interior(lb), u_m.stride(lb),
                        nullptr);
    });
    expect_ocean_bitwise(m, u_s, u_m);

    // Zeroing land re-establishes the land-zero invariant on both
    // paths, after which the planes must agree everywhere.
    each_block([&](int lb, int bx, int by) {
      mk::mask_zero(plan[lb].row_offset(), plan[lb].spans(), 1, bx, by,
                    u_s.interior(lb), u_s.stride(lb));
      mk::masked::mask_zero(op.block_mask(lb).data(), op.block_mask(lb).nx(),
                            1, bx, by, u_m.interior(lb), u_m.stride(lb));
    });
    expect_full_bitwise(u_s, u_m);
  }

  // --- B = 4 batch sweeps -------------------------------------------
  const int nb = 4;
  using Batch = mc::DistFieldBatch;
  Batch xb(*p.decomp, 0, nb, halo_width), bb(*p.decomp, 0, nb, halo_width);
  for (int mm = 0; mm < nb; ++mm) {
    mu::Field gx(nx, ny, 0.0), gb(nx, ny, 0.0);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        if (m(i, j)) {
          gx(i, j) = rng.uniform(-1, 1);
          gb(i, j) = rng.uniform(-1, 1);
        }
    Field tmp(*p.decomp, 0, halo_width);
    tmp.load_global(gx);
    xb.load_member(mm, tmp);
    tmp.load_global(gb);
    bb.load_member(mm, tmp);
  }
  halo.exchange(comm, xb);
  Batch yb_s(*p.decomp, 0, nb, halo_width),
      yb_m(*p.decomp, 0, nb, halo_width);
  Batch xb_s = xb;
  op.apply_batch(comm, halo, xb_s, yb_s);
  masked_apply(op, xb, yb_m);
  for (int lb = 0; lb < yb_s.num_local_blocks(); ++lb) {
    const auto& info = yb_s.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (m(info.i0 + i, info.j0 + j)) {
          for (int mm = 0; mm < nb; ++mm)
            ASSERT_EQ(yb_s.at(lb, i, j, mm), yb_m.at(lb, i, j, mm));
        }
  }
  Batch rb_s(*p.decomp, 0, nb, halo_width),
      rb_m(*p.decomp, 0, nb, halo_width);
  std::vector<double> sums_s(nb), sums_m(nb);
  xb_s = xb;
  op.residual_local_norm2_batch(comm, halo, bb, xb_s, rb_s, sums_s.data());
  masked_residual_norm2(op, bb, xb, rb_m, sums_m.data());
  for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(sums_s[mm], sums_m[mm]);
  op.local_dot_batch(comm, rb_s, yb_s, sums_s.data());
  masked_dot(op, rb_m, yb_m, sums_m.data());
  for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(sums_s[mm], sums_m[mm]);
  std::vector<double> d3b_s(3 * nb), d3b_m(3 * nb);
  op.local_dot3_batch(comm, rb_s, yb_s, bb, true, d3b_s.data());
  masked_dot3(op, rb_m, yb_m, bb, d3b_m.data());
  for (int k = 0; k < 3 * nb; ++k) EXPECT_EQ(d3b_s[k], d3b_m[k]);

  // batched preconditioners (gap-zero: full bitwise equality at every
  // cell and member)
  ms::DiagonalPreconditioner bd(op);
  ms::IdentityPreconditioner bi(op);
  Batch zb_s(*p.decomp, 0, nb, halo_width),
      zb_m(*p.decomp, 0, nb, halo_width);
  const auto expect_batch_bitwise = [&] {
    for (int lb = 0; lb < zb_s.num_local_blocks(); ++lb) {
      const auto& info = zb_s.info(lb);
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i)
          for (int mm = 0; mm < nb; ++mm)
            ASSERT_EQ(zb_s.at(lb, i, j, mm), zb_m.at(lb, i, j, mm))
                << "block " << lb << " (" << i << "," << j << ") member "
                << mm;
    }
  };
  bd.apply_batch(comm, rb_s, zb_s);
  masked_diag(op, rb_m, zb_m);
  expect_batch_bitwise();
  bi.apply_batch(comm, rb_s, zb_s);
  masked_identity(op, rb_m, zb_m);
  expect_batch_bitwise();
}

}  // namespace

TEST(SpanPlan, OperatorBitwiseIdenticalFp64Halo1) {
  operator_identity_case(1, 41);
}
TEST(SpanPlan, OperatorBitwiseIdenticalFp64Halo2) {
  operator_identity_case(2, 42);
}

// -------------------------------------------------------------------
// Solver-level identity: full P-CSI / ChronGear solves (including the
// depth-2 comm-avoiding schedule, whose extension sweeps run their own
// per-depth span plans) reproduce, bit for bit, the iteration counts,
// residual histories and solutions the masked kernels produced — serial
// and on 4 virtual ranks.
// -------------------------------------------------------------------

namespace {

struct SolveOut {
  mu::Field x;
  ms::SolveStats stats;
};

SolveOut run_once(const Problem& p, int nranks, const std::string& kind,
                  int halo_depth,
                  ms::EigenBounds bounds) {
  SolveOut out;
  out.x = mu::Field(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  std::vector<ms::SolveStats> stats(nranks);
  mc::HaloExchanger halo(*p.decomp);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.max_iterations = 2000;
  opt.record_residuals = true;
  opt.halo_depth = halo_depth;

  auto body = [&](mc::Communicator& comm) {
    // Depth-k P-CSI sweeps the interior grown by up to k - 1 cells.
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank(), halo_depth - 1);
    ms::DiagonalPreconditioner m(a);
    std::unique_ptr<ms::BatchedSolver> s;
    if (kind == "pcsi")
      s = std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
    else
      s = std::make_unique<ms::BatchedChronGearSolver>(opt);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    stats[comm.rank()] = ms::solve_one(*s, comm, halo, a, m, b, x);
    x.store_global(out.x);  // disjoint interiors; no race
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    team.run(body);
  }
  out.stats = stats[0];
  return out;
}

// Golden pins of the four feature-mask solves below, recorded with the
// masked kernels (span execution off) — the path span execution
// replaced. Format: tests/golden_pin.hpp. The counter rows (the solve's,
// then the serial Lanczos estimate's) were added later, from the span
// path. The 4-rank row's p2p_messages and requests cells were
// regenerated (3120 -> 624, 3152 -> 656) when the halo engine went from
// one message per (block, direction) to one per peer rank; every other
// cell and every bit stayed. The depth-2 row's counter cells were
// regenerated (all lower) when the depth-k schedule stopped exchanging
// r and sweeping the widest rim; every bit stayed.
const minipop::test::Pin kFeatureMaskPins[] = {
    {"pcsi/ranks1/depth1", 310, 0x3dcdc2dd32234721ull, 31, 0x45dab237u, 0x091a0a3cu, 0,
     {3127080, 0, 0, 0, 312, 312, 32, 32, 0, 355680, 617760, 0, 0},
     {119460, 0, 0, 0, 9, 9, 19, 19, 0, 27740, 48180, 0, 0}},
    {"pcsi/ranks4/depth1", 310, 0x3dcdc2dd32234723ull, 31, 0x99f81aa3u, 0x091a0a3cu, 0,
     {852840, 0, 624, 199680, 312, 312, 32, 32, 656, 97344, 168480, 0, 0},
     {119460, 0, 0, 0, 9, 9, 19, 19, 0, 27740, 48180, 0, 0}},
    {"pcsi/ranks1/depth2", 310, 0x3dcdc2dd32234721ull, 31, 0x45dab237u, 0x091a0a3cu, 0,
     {4382580, 1255500, 0, 0, 158, 313, 32, 32, 0, 479835, 868860, 0, 0},
     {119460, 0, 0, 0, 9, 9, 19, 19, 0, 27740, 48180, 0, 0}},
    {"chrongear/ranks1/depth1", 110, 0x3dd736d03bdf727cull, 11, 0xef16de32u, 0xd50b6f56u, 0,
     {1614360, 0, 0, 0, 111, 111, 111, 232, 0, 209000, 363000, 0, 0},
     {119460, 0, 0, 0, 9, 9, 19, 19, 0, 27740, 48180, 0, 0}},
};

void solver_identity_case(int nranks, const std::string& kind,
                          int halo_depth) {
  Problem p = make_problem(30, 22, 6, nranks, 77);
  mc::CostCounters setup;
  const ms::EigenBounds bounds = lanczos_bounds_serial(p, &setup);
  const SolveOut s = run_once(p, nranks, kind, halo_depth, bounds);
  EXPECT_TRUE(s.stats.converged);
  const std::string label = kind + "/ranks" + std::to_string(nranks) +
                            "/depth" + std::to_string(halo_depth);
  minipop::test::check_pin(
      minipop::test::make_pin(label.c_str(), s.stats, s.x, setup),
      kFeatureMaskPins);
}

}  // namespace

TEST(SpanPlan, PcsiSolveBitwiseSerial) { solver_identity_case(1, "pcsi", 1); }
TEST(SpanPlan, PcsiSolveBitwiseFourRanks) {
  solver_identity_case(4, "pcsi", 1);
}
TEST(SpanPlan, PcsiCommAvoidDepth2SolveBitwise) {
  solver_identity_case(1, "pcsi", 2);
}
TEST(SpanPlan, ChronGearSolveBitwiseSerial) {
  solver_identity_case(1, "chrongear", 1);
}
