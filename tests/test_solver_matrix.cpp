// Full SolverConfig composition matrix over the unified execution core
// (DESIGN.md §11): every solver x precision x resilient x overlap
// combination either composes with batching (P-CSI and ChronGear at any
// precision run the lockstep batched stack; anything at fp64 at least
// solves correctly through solve_batch) or is rejected loudly at
// construction (PCG / pipelined CG with a non-fp64 precision). No
// combination may silently fall back or diverge.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

/// Small bowl with an island — enough masked structure to make the
/// preconditioners and the Lanczos bounds non-trivial, small enough to
/// sweep ~100 configurations.
struct MatrixProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  std::unique_ptr<mc::HaloExchanger> halo;

  MatrixProblem(int nx = 18, int ny = 14) {
    mg::GridSpec spec;
    spec.kind = mg::GridKind::kUniform;
    spec.nx = nx;
    spec.ny = ny;
    spec.periodic_x = false;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<mg::CurvilinearGrid>(spec);
    depth = mg::bowl_bathymetry(*grid, 4000.0);
    depth(9, 7) = 0.0;  // island
    depth(10, 7) = 0.0;
    stencil = std::make_unique<mg::NinePointStencil>(*grid, depth, 1e-6);
    decomp = std::make_unique<mg::Decomposition>(nx, ny, false,
                                                 stencil->mask(), 9, 7, 1);
    halo = std::make_unique<mc::HaloExchanger>(*decomp);
  }

  mu::Field random_rhs(std::uint64_t seed) const {
    mu::Xoshiro256 rng(seed);
    mu::Field b(grid->nx(), grid->ny(), 0.0);
    for (int j = 0; j < grid->ny(); ++j)
      for (int i = 0; i < grid->nx(); ++i)
        if (stencil->mask()(i, j)) b(i, j) = rng.uniform(-1, 1);
    return b;
  }
};

bool lockstep_kind(ms::SolverKind k) {
  return k == ms::SolverKind::kPcsi || k == ms::SolverKind::kChronGear;
}

TEST(SolverMatrix, EveryConfigComposesOrRejectsLoudly) {
  MatrixProblem p;
  mc::SerialComm comm;
  const int nb = 4;
  std::vector<mu::Field> rhs;
  for (int m = 0; m < nb; ++m) rhs.push_back(p.random_rhs(9000 + m));

  const ms::SolverKind solvers[] = {
      ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
      ms::SolverKind::kPcsi, ms::SolverKind::kPipelinedCg};
  const ms::Precision precisions[] = {
      ms::Precision::kFp64, ms::Precision::kFp32, ms::Precision::kMixed};

  for (ms::SolverKind kind : solvers) {
    for (ms::Precision prec : precisions) {
      for (int resilient = 0; resilient < 2; ++resilient) {
        for (int overlap = 0; overlap < 2; ++overlap) {
          const bool fp32 = prec == ms::Precision::kFp32;
          ms::SolverConfig cfg;
          cfg.solver = kind;
          cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
          // fp32 round-off floors the residual near 1e-7; ask only for
          // what the storage format can deliver.
          cfg.options.rel_tolerance = fp32 ? 1e-5 : 1e-10;
          cfg.options.precision = prec;
          cfg.resilient = resilient != 0;
          cfg.options.overlap = overlap != 0;
          cfg.lanczos.rel_tolerance = 0.02;

          SCOPED_TRACE(ms::to_string(kind) + "/" +
                       std::string(ms::to_string(prec)) +
                       (resilient ? "/resilient" : "") +
                       (overlap ? "/overlap" : ""));

          // The one non-composable corner: long-recurrence solvers have
          // no fp32 arithmetic, so a non-fp64 precision must be a
          // construction-time error, not a silent downgrade.
          if (!lockstep_kind(kind) && prec != ms::Precision::kFp64) {
            EXPECT_THROW(ms::BarotropicSolver(comm, *p.halo, *p.grid,
                                              p.depth, *p.stencil,
                                              *p.decomp, cfg),
                         mu::Error);
            continue;
          }

          ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth,
                                      *p.stencil, *p.decomp, cfg);
          // Lockstep solvers keep the fused batched core at EVERY
          // precision and decoration — composing must never cost the
          // aggregation.
          EXPECT_EQ(solver.has_batched_path(), lockstep_kind(kind));
          EXPECT_FALSE(solver.batched().name().empty());

          // B=1: the degenerate batch must converge like a single solve.
          const double tol = fp32 ? 1e-4 : 1e-8;
          {
            mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
            b.load_global(rhs[0]);
            const mc::DistField* bs[1] = {&b};
            mc::DistField* xs[1] = {&x};
            const auto stats = solver.solve_batch(comm, bs, xs);
            ASSERT_EQ(static_cast<int>(stats.members.size()), 1);
            EXPECT_TRUE(stats.members[0].converged);
            EXPECT_LE(stats.members[0].relative_residual, tol);
          }

          // B=4 with distinct right-hand sides: per-member convergence.
          std::vector<mc::DistField> bb, xb;
          std::vector<const mc::DistField*> bs;
          std::vector<mc::DistField*> xs;
          for (int m = 0; m < nb; ++m) {
            bb.emplace_back(*p.decomp, 0);
            xb.emplace_back(*p.decomp, 0);
            bb.back().load_global(rhs[m]);
          }
          for (int m = 0; m < nb; ++m) {
            bs.push_back(&bb[m]);
            xs.push_back(&xb[m]);
          }
          const auto stats = solver.solve_batch(comm, bs, xs);
          ASSERT_EQ(static_cast<int>(stats.members.size()), nb);
          for (int m = 0; m < nb; ++m) {
            EXPECT_TRUE(stats.members[m].converged) << "member " << m;
            EXPECT_LE(stats.members[m].relative_residual, tol)
                << "member " << m;
          }
        }
      }
    }
  }
}

}  // namespace
