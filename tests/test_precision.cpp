// Mixed-precision solver path: the fp32/mixed modes of
// BatchedMixedPrecisionSolver, the fp32 halo payload, and the
// BatchedResilientSolver precision-escalation rung that rescues an fp32
// solve stagnating at its accuracy floor.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ml = minipop::linalg;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

/// Bowl bathymetry with an island and a coast-to-island wall pierced by a
/// one-cell strait — the masked topologies POP's production grids throw
/// at the solver.
struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  std::unique_ptr<mc::HaloExchanger> halo;
  mu::Field b_global;

  Problem(int nx = 22, int ny = 18) {
    mg::GridSpec spec;
    spec.kind = mg::GridKind::kUniform;
    spec.nx = nx;
    spec.ny = ny;
    spec.periodic_x = false;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<mg::CurvilinearGrid>(spec);
    depth = mg::bowl_bathymetry(*grid, 4000.0);
    depth(11, 9) = 0.0;  // island
    depth(12, 9) = 0.0;
    for (int j = 0; j < 5; ++j) depth(6, j) = 0.0;  // wall from the coast…
    depth(6, 2) = 120.0;                            // …pierced by a strait
    stencil = std::make_unique<mg::NinePointStencil>(*grid, depth, 1e-6);
    decomp = std::make_unique<mg::Decomposition>(nx, ny, false,
                                                 stencil->mask(), 11, 9, 1);
    halo = std::make_unique<mc::HaloExchanger>(*decomp);

    mu::Xoshiro256 rng(3);
    b_global = mu::Field(nx, ny, 0.0);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        if (stencil->mask()(i, j)) b_global(i, j) = rng.uniform(-1, 1);
  }
};

}  // namespace

// ---------------------------------------------------------------------
// Property: mixed mode reaches the caller's fp64 tolerance — same
// answer as the dense reference to tolerance-consistent error — on the
// island/strait bathymetry, for every solver that has an fp32 inner
// path, with both preconditioners that have fp32 mirrors.
// ---------------------------------------------------------------------

class MixedPrecisionMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<ms::SolverKind, ms::PreconditionerKind>> {};

TEST_P(MixedPrecisionMatrixTest, MixedReachesFp64ToleranceOnIslandStrait) {
  const auto [solver_kind, precond_kind] = GetParam();
  Problem p;
  mc::SerialComm comm;

  ms::SolverConfig cfg;
  cfg.solver = solver_kind;
  cfg.preconditioner = precond_kind;
  cfg.options.rel_tolerance = 1e-11;
  cfg.options.precision = ms::Precision::kMixed;
  cfg.evp.max_tile = 9;
  cfg.lanczos.rel_tolerance = 0.02;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
  ASSERT_NE(solver.mixed(), nullptr);

  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto stats = solver.solve(comm, b, x);
  ASSERT_TRUE(stats.converged) << solver.description();
  EXPECT_LE(stats.relative_residual, 1e-11);
  // The fp64 outer loop must have gone through fp32 refinement sweeps,
  // not silently escalated to the fp64 twin.
  EXPECT_GE(stats.refine_sweeps, 1) << solver.description();

  auto a = p.stencil->to_dense();
  const int nx = p.grid->nx(), ny = p.grid->ny();
  std::vector<double> bv(static_cast<std::size_t>(nx) * ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) bv[j * nx + i] = p.b_global(i, j);
  auto xv = ml::cholesky_solve(a, bv);
  mu::Field x_global(nx, ny, 0.0);
  x.store_global(x_global);
  double scale = 0;
  for (double v : xv) scale = std::max(scale, std::abs(v));
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      EXPECT_NEAR(x_global(i, j), xv[j * nx + i], 1e-6 * scale)
          << solver.description() << " at (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    InnerFp32Solvers, MixedPrecisionMatrixTest,
    ::testing::Combine(::testing::Values(ms::SolverKind::kPcsi,
                                         ms::SolverKind::kChronGear),
                       ::testing::Values(ms::PreconditionerKind::kDiagonal,
                                         ms::PreconditionerKind::kBlockEvp)),
    [](const auto& info) {
      std::string name = ms::to_string(std::get<0>(info.param)) + "_" +
                         ms::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------
// fp32 floor, stagnation guard, and the escalation rung.
// ---------------------------------------------------------------------

// A pure fp32 solve cannot reach 1e-13: round-off floors the relative
// residual near 1e-7 and the ConvergenceGuard's stagnation window turns
// the stall into a typed kStagnated failure instead of burning the whole
// iteration budget.
TEST(PrecisionEscalation, Fp32StagnatesAtTightToleranceWithoutResilience) {
  Problem p;
  mc::SerialComm comm;

  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = 1e-13;
  cfg.options.precision = ms::Precision::kFp32;
  cfg.options.stagnation_window = 3;
  cfg.lanczos.rel_tolerance = 0.02;
  cfg.resilient = false;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);

  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto stats = solver.solve(comm, b, x);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.failure, ms::FailureKind::kStagnated);
  // It stalled at the fp32 floor: far better than nothing, far short of
  // the fp64 tolerance.
  EXPECT_LT(stats.relative_residual, 1e-4);
  EXPECT_GT(stats.relative_residual, 1e-13);
}

// With the resilience decorator in the loop, the same stagnation is cured by
// the precision-escalation rung: one typed RecoveryEvent, then the fp64
// twin finishes the solve to full tolerance.
TEST(PrecisionEscalation, ResilientEscalatesStagnatedFp32ToFp64) {
  Problem p;
  mc::SerialComm comm;

  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = 1e-13;
  cfg.options.precision = ms::Precision::kFp32;
  cfg.options.stagnation_window = 3;
  cfg.lanczos.rel_tolerance = 0.02;
  cfg.resilient = true;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
  ASSERT_NE(solver.resilient(), nullptr);
  ASSERT_NE(solver.mixed(), nullptr);

  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto stats = solver.solve(comm, b, x);
  ASSERT_TRUE(stats.converged);
  EXPECT_LE(stats.relative_residual, 1e-13);

  const auto& events = solver.resilient()->events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().action, "escalate_precision");
  EXPECT_EQ(events.front().failure, ms::FailureKind::kStagnated);
  // Escalation alone must suffice — no restart / re-estimate / fallback.
  EXPECT_EQ(events.size(), 1u);

  // The escalation is per-solve: a fresh solve re-enters at the
  // configured fp32 arithmetic, stagnates again, and escalates again —
  // it is not pinned to the fp64 twin by the previous recovery.
  solver.resilient()->clear_events();
  mc::DistField x2(*p.decomp, 0);
  auto stats2 = solver.solve(comm, b, x2);
  ASSERT_TRUE(stats2.converged);
  ASSERT_FALSE(solver.resilient()->events().empty());
  EXPECT_EQ(solver.resilient()->events().front().action,
            "escalate_precision");
}

// ---------------------------------------------------------------------
// Supporting contracts: halo payload and demote/promote round-trips.
// ---------------------------------------------------------------------

TEST(PrecisionFields, Fp32HalvesHaloPayload) {
  // On one rank every halo move is a local copy (zero wire bytes), so
  // count payload on a 4-rank split of the same mask.
  Problem p;
  mg::Decomposition d4(22, 18, false, p.stencil->mask(), 11, 9, 4);
  mc::HaloExchanger halo4(d4);
  mc::DistField f64(d4, 0);
  mc::DistField32 f32(d4, 0);
  const auto b64 = halo4.bytes_sent_per_exchange(f64);
  const auto b32 = halo4.bytes_sent_per_exchange(f32);
  ASSERT_GT(b64, 0u);
  EXPECT_EQ(b32 * 2, b64);
}

TEST(PrecisionFields, DemotePromoteAxpyPromotedAreExactWhereExpected) {
  Problem p;
  mc::SerialComm comm;
  mu::Xoshiro256 rng(17);
  constexpr int kNb = 2;
  mc::DistFieldBatch x(*p.decomp, 0, kNb), y(*p.decomp, 0, kNb);
  for (int m = 0; m < kNb; ++m) {
    mu::Field g(p.grid->nx(), p.grid->ny(), 0.0);
    for (int j = 0; j < p.grid->ny(); ++j)
      for (int i = 0; i < p.grid->nx(); ++i) g(i, j) = rng.uniform(-1, 1);
    mc::DistField plane(*p.decomp, 0);
    plane.load_global(g);
    x.load_member(m, plane);
    y.load_member(m, plane);
  }

  mc::DistFieldBatch32 x32(*p.decomp, 0, kNb);
  ms::demote(x, x32);
  mc::DistFieldBatch back(*p.decomp, 0, kNb);
  ms::promote(x32, back);
  // Promote is exact, so the round trip is a single fp32 rounding.
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        for (int m = 0; m < kNb; ++m) {
          EXPECT_EQ(x32.at(lb, i, j, m),
                    static_cast<float>(x.at(lb, i, j, m)));
          EXPECT_EQ(back.at(lb, i, j, m),
                    static_cast<double>(x32.at(lb, i, j, m)));
        }
  }

  // axpy_promoted widens each fp32 element before the fp64 fma-free
  // multiply-add, elementwise identical to the scalar expression, and
  // leaves inactive members untouched.
  const double a[kNb] = {0.75, -0.5};
  const unsigned char active[kNb] = {1, 0};
  ms::axpy_promoted(comm, a, x32, y, active, 1);
  for (int lb = 0; lb < y.num_local_blocks(); ++lb) {
    const auto& info = y.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        EXPECT_EQ(y.at(lb, i, j, 0),
                  x.at(lb, i, j, 0) +
                      0.75 * static_cast<double>(x32.at(lb, i, j, 0)));
        EXPECT_EQ(y.at(lb, i, j, 1), x.at(lb, i, j, 1));
      }
  }
}
