// Full SolverConfig composition matrix over the unified execution core
// (DESIGN.md §11): every solver x resilient x overlap combination
// composes with batching (P-CSI and ChronGear run the lockstep batched
// stack; PCG and pipelined CG solve correctly member by member through
// solve_batch). No combination may silently fall back or diverge.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

/// Small bowl with an island — enough masked structure to make the
/// preconditioners and the Lanczos bounds non-trivial, small enough to
/// sweep every configuration.
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

  for (ms::SolverKind kind : solvers) {
    for (int resilient = 0; resilient < 2; ++resilient) {
      for (int overlap = 0; overlap < 2; ++overlap) {
        ms::SolverConfig cfg;
        cfg.solver = kind;
        cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
        cfg.options.rel_tolerance = 1e-10;
        cfg.resilient = resilient != 0;
        cfg.options.overlap = overlap != 0;
        cfg.lanczos.rel_tolerance = 0.02;

        SCOPED_TRACE(ms::to_string(kind) + (resilient ? "/resilient" : "") +
                     (overlap ? "/overlap" : ""));

        ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth,
                                    *p.stencil, *p.decomp, cfg);
        // Lockstep solvers keep the fused batched core under EVERY
        // decoration — composing must never cost the aggregation.
        EXPECT_EQ(solver.has_batched_path(), lockstep_kind(kind));
        EXPECT_FALSE(solver.batched().name().empty());

        // B=1: the degenerate batch must converge like a single solve.
        const double tol = 1e-8;
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

}  // namespace
