// Tests for the extension features: residual-history recording and
// model checkpoint/restart.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/model/ocean_model.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ml = minipop::linalg;
namespace mm = minipop::model;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

struct SmallProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

SmallProblem make_problem() {
  SmallProblem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = 20;
  spec.ny = 16;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth,
                                                     1e-6);
  p.decomp = std::make_unique<mg::Decomposition>(20, 16, false,
                                                 p.stencil->mask(), 20, 16,
                                                 1);
  p.b_global = mu::Field(20, 16, 0.0);
  mu::Xoshiro256 rng(21);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 20; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

}  // namespace

TEST(ResidualHistory, RecordedAtCheckpointsAndDecreasing) {
  auto p = make_problem();
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(a);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-11;
  opt.record_residuals = true;
  ms::BatchedChronGearSolver solver(opt);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto stats = ms::solve_one(solver, comm, halo, a, m, b, x);
  ASSERT_TRUE(stats.converged);
  ASSERT_GE(stats.residual_history.size(), 2u);
  for (std::size_t k = 0; k < stats.residual_history.size(); ++k) {
    EXPECT_EQ(stats.residual_history[k].first,
              static_cast<int>(k + 1) * opt.check_frequency);
  }
  // CG residuals measured every 10 iterations decrease in practice.
  EXPECT_LT(stats.residual_history.back().second,
            stats.residual_history.front().second);
  EXPECT_LE(stats.residual_history.back().second, opt.rel_tolerance);

  // Off by default.
  opt.record_residuals = false;
  ms::BatchedChronGearSolver quiet(opt);
  mc::DistField x2(*p.decomp, 0);
  auto stats2 = ms::solve_one(quiet, comm, halo, a, m, b, x2);
  EXPECT_TRUE(stats2.residual_history.empty());
}

// --- Checkpoint / restart ------------------------------------------------

namespace {
mm::ModelConfig tiny_model() {
  mm::ModelConfig cfg;
  cfg.grid = minipop::grid::pop_1deg_spec(0.08);
  cfg.nz = 2;
  cfg.block_size = 12;
  cfg.nranks = 1;
  return cfg;
}
}  // namespace

TEST(Checkpoint, RestartReproducesTrajectoryBitwise) {
  mc::SerialComm c1;
  mm::OceanModel m1(c1, tiny_model());
  for (int s = 0; s < 20; ++s) m1.step(c1);
  std::stringstream snapshot;
  m1.save_state(snapshot);
  for (int s = 0; s < 15; ++s) m1.step(c1);
  mu::Array3D<double> t_direct;
  m1.gather_temperature(t_direct);

  mc::SerialComm c2;
  mm::OceanModel m2(c2, tiny_model());
  m2.load_state(c2, snapshot);
  EXPECT_EQ(m2.step_count(), 20);
  for (int s = 0; s < 15; ++s) m2.step(c2);
  mu::Array3D<double> t_restart;
  m2.gather_temperature(t_restart);

  for (std::size_t n = 0; n < t_direct.size(); ++n)
    ASSERT_EQ(t_direct.data()[n], t_restart.data()[n]) << "cell " << n;
  EXPECT_EQ(m1.step_count(), m2.step_count());
}

TEST(Checkpoint, RejectsWrongShape) {
  mc::SerialComm c1;
  mm::OceanModel m1(c1, tiny_model());
  std::stringstream snapshot;
  m1.save_state(snapshot);

  auto other = tiny_model();
  other.nz = 3;  // different vertical levels
  mc::SerialComm c2;
  mm::OceanModel m2(c2, other);
  EXPECT_THROW(m2.load_state(c2, snapshot), mu::Error);
}

TEST(Checkpoint, RejectsGarbage) {
  mc::SerialComm comm;
  mm::OceanModel m(comm, tiny_model());
  std::stringstream garbage("this is not a checkpoint");
  EXPECT_THROW(m.load_state(comm, garbage), mu::Error);
}
