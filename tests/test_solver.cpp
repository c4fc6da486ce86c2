#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/lanczos.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ml = minipop::linalg;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;  ///< masked RHS
  mu::Field x_ref;     ///< dense reference solution
};

/// Small masked test problem with a dense reference solution.
Problem make_problem(int nx, int ny, int block, int nranks,
                     bool periodic = false, std::uint64_t seed = 5) {
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = periodic;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;  // mild anisotropy: all nine coefficients nonzero
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  const double phi = mg::barotropic_phi(600.0);
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, phi);
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, periodic, p.stencil->mask(), block, block, nranks);

  mu::Xoshiro256 rng(seed);
  p.b_global = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);

  // Dense reference.
  auto a = p.stencil->to_dense();
  std::vector<double> bv(static_cast<std::size_t>(nx) * ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) bv[j * nx + i] = p.b_global(i, j);
  auto xv = ml::cholesky_solve(a, bv);
  p.x_ref = mu::Field(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) p.x_ref(i, j) = xv[j * nx + i];
  return p;
}

/// Run a solver serially, as a width-1 batch, on rank 0 of a 1-rank
/// decomposition; return the gathered solution and the stats.
std::pair<mu::Field, ms::SolveStats> solve_serial(
    const Problem& p, ms::BatchedSolver& solver,
    bool diagonal_precond = true) {
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  std::unique_ptr<ms::Preconditioner> m;
  if (diagonal_precond)
    m = std::make_unique<ms::DiagonalPreconditioner>(a);
  else
    m = std::make_unique<ms::IdentityPreconditioner>(a);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto stats = ms::solve_one(solver, comm, halo, a, *m, b, x);
  mu::Field out(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  x.store_global(out);
  return {out, stats};
}

double max_abs_err(const mu::Field& a, const mu::Field& b) {
  double m = 0;
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

double max_abs(const mu::Field& a) {
  double m = 0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

ms::EigenBounds lanczos_bounds_serial(const Problem& p,
                                      bool diagonal_precond = true) {
  // Build a private 1-rank decomposition: p.decomp may be multi-rank.
  mg::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                       p.stencil->periodic_x(), p.stencil->mask(),
                       p.stencil->nx(), p.stencil->ny(), 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(d1);
  ms::DistOperator a(*p.stencil, d1, 0);
  std::unique_ptr<ms::Preconditioner> m;
  if (diagonal_precond)
    m = std::make_unique<ms::DiagonalPreconditioner>(a);
  else
    m = std::make_unique<ms::IdentityPreconditioner>(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;  // tight bounds for near-optimal Chebyshev
  return ms::estimate_eigenvalue_bounds(comm, halo, a, *m, lopt).bounds;
}

}  // namespace

TEST(Pcg, MatchesDenseSolution) {
  auto p = make_problem(14, 12, 14, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-12;
  ms::BatchedPcgSolver solver(opt);
  auto [x, stats] = solve_serial(p, solver);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(max_abs_err(x, p.x_ref), 1e-8 * std::max(1.0, max_abs(p.x_ref)));
}

TEST(ChronGear, MatchesDenseSolution) {
  auto p = make_problem(14, 12, 14, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-12;
  ms::BatchedChronGearSolver solver(opt);
  auto [x, stats] = solve_serial(p, solver);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(max_abs_err(x, p.x_ref), 1e-8 * std::max(1.0, max_abs(p.x_ref)));
}

TEST(ChronGear, IterationCountTracksPcg) {
  // ChronGear is a rearranged PCG: same Krylov space, so the iteration
  // counts must agree up to the convergence-check granularity.
  auto p = make_problem(20, 16, 20, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  ms::BatchedPcgSolver pcg(opt);
  ms::BatchedChronGearSolver cg(opt);
  auto [x1, s1] = solve_serial(p, pcg);
  auto [x2, s2] = solve_serial(p, cg);
  EXPECT_TRUE(s1.converged);
  EXPECT_TRUE(s2.converged);
  EXPECT_NEAR(s1.iterations, s2.iterations, opt.check_frequency);
}

TEST(ChronGear, OneReductionPerIteration) {
  auto p = make_problem(20, 16, 20, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  ms::BatchedChronGearSolver solver(opt);
  auto [x, stats] = solve_serial(p, solver);
  ASSERT_TRUE(stats.converged);
  // iterations + initial ||b|| reduction.
  EXPECT_EQ(stats.costs.allreduces,
            static_cast<std::uint64_t>(stats.iterations) + 1);
  // One halo exchange (inside the matvec) per iteration + initial residual.
  EXPECT_EQ(stats.costs.halo_exchanges,
            static_cast<std::uint64_t>(stats.iterations) + 1);
}

TEST(Pcg, TwoReductionsPerIteration) {
  auto p = make_problem(20, 16, 20, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  ms::BatchedPcgSolver solver(opt);
  auto [x, stats] = solve_serial(p, solver);
  ASSERT_TRUE(stats.converged);
  // 2 per full iteration; the final (converged) iteration stops after the
  // first reduction; +1 for the initial ||b||.
  EXPECT_EQ(stats.costs.allreduces,
            2 * static_cast<std::uint64_t>(stats.iterations));
}

// A guard failure freezes the solve on the norm its check reduced: the
// reported residual is bitwise the last checked one, and no trailing
// ||r||² sweep and allreduce follow (2 per iteration, the last one
// stopping after its first; +1 for ||b||²).
TEST(Pcg, GuardFailureReportsTheCheckedNorm) {
  auto p = make_problem(20, 16, 20, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  opt.stagnation_window = 1;
  opt.stagnation_decrease = 0.999;  // a 1000x gain per check, or fail
  ms::BatchedPcgSolver solver(opt);
  auto [x, stats] = solve_serial(p, solver);
  ASSERT_EQ(stats.failure, ms::FailureKind::kStagnated);
  ASSERT_FALSE(stats.residual_history.empty());
  EXPECT_EQ(stats.relative_residual, stats.residual_history.back().second);
  EXPECT_EQ(stats.costs.allreduces,
            2 * static_cast<std::uint64_t>(stats.iterations));
}

// Every sweep of the PCG loop lands in the ocean census: a
// fixed-iteration solve reports swept_points = (interior cells) x (the
// sweeps its loop performs) and active_points = (ocean cells) x the same
// count. Diagonal preconditioner, check_frequency 10, 20 iterations
// without convergence: ||b||² + initial residual (2); per iteration
// preconditioner, r.z, p = z + beta p, matvec, p.q and two axpys
// (20 x 7); two check norms (2); the final ||r||² (1) — 145 sweeps.
TEST(SweepCensus, PcgCountsEverySweep) {
  auto p = make_problem(20, 16, 10, 1);
  std::uint64_t cells = 0;
  for (int id : p.decomp->blocks_of_rank(0))
    cells += static_cast<std::uint64_t>(p.decomp->block(id).nx) *
             p.decomp->block(id).ny;
  const auto ocean = static_cast<std::uint64_t>(
      ms::DistOperator(*p.stencil, *p.decomp, 0).local_ocean_cells());
  ASSERT_LT(ocean, cells);  // land inside the swept blocks

  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-30;
  opt.max_iterations = 20;
  const auto expect_sweeps = [&](const ms::SolveStats& stats,
                                 std::uint64_t sweeps) {
    EXPECT_EQ(stats.iterations, 20);
    EXPECT_EQ(stats.failure, ms::FailureKind::kMaxIters);
    EXPECT_EQ(stats.costs.swept_points, cells * sweeps);
    EXPECT_EQ(stats.costs.active_points, ocean * sweeps);
  };
  ms::BatchedPcgSolver pcg(opt);
  expect_sweeps(solve_serial(p, pcg).second, 145);
}

TEST(Pcsi, ConvergesWithLanczosBounds) {
  auto p = make_problem(16, 14, 16, 1);
  auto bounds = lanczos_bounds_serial(p);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-11;
  ms::BatchedPcsiSolver solver(bounds, opt);
  auto [x, stats] = solve_serial(p, solver);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(max_abs_err(x, p.x_ref), 1e-7 * std::max(1.0, max_abs(p.x_ref)));
}

TEST(Pcsi, NeedsMoreIterationsThanChronGearButFewerReductions) {
  // The paper's central trade-off: K_pcsi > K_cg, but P-CSI's reduction
  // count is ~K/check_frequency instead of ~K.
  auto p = make_problem(24, 20, 24, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  ms::BatchedChronGearSolver cg(opt);
  auto [xc, sc] = solve_serial(p, cg);
  auto bounds = lanczos_bounds_serial(p);
  ms::BatchedPcsiSolver pcsi(bounds, opt);
  auto [xp, sp] = solve_serial(p, pcsi);
  ASSERT_TRUE(sc.converged);
  ASSERT_TRUE(sp.converged);
  EXPECT_GT(sp.iterations, sc.iterations);
  EXPECT_LT(sp.costs.allreduces, sc.costs.allreduces / 2);
  // Both reach the same solution.
  EXPECT_LT(max_abs_err(xp, xc), 1e-6 * std::max(1.0, max_abs(xc)));
}

TEST(Pcsi, RejectsInvalidBounds) {
  EXPECT_THROW(ms::BatchedPcsiSolver(ms::EigenBounds{0.0, 1.0}), mu::Error);
  EXPECT_THROW(ms::BatchedPcsiSolver(ms::EigenBounds{2.0, 1.0}), mu::Error);
}

TEST(Solvers, ZeroRhsGivesZeroSolution) {
  auto p = make_problem(12, 10, 12, 1);
  p.b_global.fill(0.0);
  ms::BatchedChronGearSolver solver;
  auto [x, stats] = solve_serial(p, solver);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_EQ(max_abs(x), 0.0);
}

TEST(Solvers, NonConvergenceIsReportedNotThrown) {
  auto p = make_problem(20, 16, 20, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-14;
  opt.max_iterations = 3;
  ms::BatchedChronGearSolver solver(opt);
  auto [x, stats] = solve_serial(p, solver);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.iterations, 3);
  EXPECT_GT(stats.relative_residual, 1e-14);
}

TEST(Solvers, DiagonalPreconditioningReducesIterations) {
  auto p = make_problem(20, 18, 20, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  ms::BatchedChronGearSolver solver(opt);
  auto [xd, sd] = solve_serial(p, solver, /*diagonal=*/true);
  auto [xi, si] = solve_serial(p, solver, /*diagonal=*/false);
  ASSERT_TRUE(sd.converged);
  ASSERT_TRUE(si.converged);
  EXPECT_LE(sd.iterations, si.iterations);
}

TEST(Solvers, WarmStartConvergesFaster) {
  auto p = make_problem(18, 16, 18, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  ms::BatchedChronGearSolver solver(opt);

  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(a);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto cold = ms::solve_one(solver, comm, halo, a, m, b, x);
  // x now holds the solution; re-solving from it must converge at the
  // first check.
  auto warm = ms::solve_one(solver, comm, halo, a, m, b, x);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, opt.check_frequency);
}

// A caller that attests a fresh input halo saves the solve exactly one
// exchange and changes no bit: the stale path exchanges x itself, the
// fresh path trusts the caller's exchange of the same values.
TEST(HaloFreshness, FreshInputSkipsExactlyOneExchange) {
  auto p = make_problem(24, 16, 6, 1, /*periodic=*/false, /*seed=*/11);
  mu::Field x0_global(24, 16, 0.0);
  mu::Xoshiro256 rng(55);
  for (double& v : x0_global) v = rng.uniform(-1, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  ms::BatchedChronGearSolver solver(opt);

  struct Run {
    mu::Field x;
    ms::SolveStats stats;
    std::uint64_t halo_exchanges;
  };
  auto solve_with = [&](mc::HaloFreshness fresh) {
    mc::SerialComm comm;
    mc::HaloExchanger halo(*p.decomp);
    ms::DistOperator a(*p.stencil, *p.decomp, 0);
    ms::DiagonalPreconditioner m(a);
    mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
    b.load_global(p.b_global);
    x.load_global(x0_global);
    halo.exchange(comm, x);
    const auto snapshot = comm.costs().counters();
    Run run{mu::Field(24, 16, 0.0),
            ms::solve_one(solver, comm, halo, a, m, b, x, fresh), 0};
    x.store_global(run.x);
    run.halo_exchanges = comm.costs().since(snapshot).halo_exchanges;
    return run;
  };

  const Run stale = solve_with(mc::HaloFreshness::kStale);
  const Run fresh = solve_with(mc::HaloFreshness::kFresh);
  ASSERT_TRUE(stale.stats.converged);
  EXPECT_EQ(stale.stats.converged, fresh.stats.converged);
  EXPECT_EQ(stale.stats.iterations, fresh.stats.iterations);
  EXPECT_EQ(stale.stats.relative_residual, fresh.stats.relative_residual);
  // Recorded residuals: an empty history would compare vacuously.
  ASSERT_FALSE(stale.stats.residual_history.empty());
  EXPECT_EQ(stale.stats.residual_history, fresh.stats.residual_history);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 24; ++i)
      ASSERT_EQ(stale.x(i, j), fresh.x(i, j)) << "at (" << i << ", " << j
                                              << ")";
  EXPECT_EQ(stale.halo_exchanges, fresh.halo_exchanges + 1);
}

TEST(Solvers, MultiRankMatchesSerial) {
  const int nranks = 4;
  auto p = make_problem(24, 16, 6, nranks);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-11;

  // Serial reference on a 1-rank decomposition of the same stencil.
  mg::Decomposition d1(24, 16, false, p.stencil->mask(), 24, 16, 1);
  mu::Field x_serial(24, 16, 0.0);
  {
    mc::SerialComm comm;
    mc::HaloExchanger halo(d1);
    ms::DistOperator a(*p.stencil, d1, 0);
    ms::DiagonalPreconditioner m(a);
    mc::DistField b(d1, 0), x(d1, 0);
    b.load_global(p.b_global);
    ms::BatchedChronGearSolver solver(opt);
    auto stats = ms::solve_one(solver, comm, halo, a, m, b, x);
    ASSERT_TRUE(stats.converged);
    x.store_global(x_serial);
  }

  mu::Field x_parallel(24, 16, 0.0);
  std::vector<int> iters(nranks);
  mc::ThreadTeam team(nranks);
  mc::HaloExchanger halo(*p.decomp);
  team.run([&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    ms::DiagonalPreconditioner m(a);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    ms::BatchedChronGearSolver solver(opt);
    auto stats = ms::solve_one(solver, comm, halo, a, m, b, x);
    EXPECT_TRUE(stats.converged);
    iters[comm.rank()] = stats.iterations;
    x.store_global(x_parallel);  // disjoint interiors; no race
  });
  // All ranks agree on the iteration count (collective convergence).
  for (int r = 1; r < nranks; ++r) EXPECT_EQ(iters[r], iters[0]);
  EXPECT_LT(max_abs_err(x_parallel, x_serial),
            1e-6 * std::max(1.0, max_abs(x_serial)));
}

TEST(Pcsi, MultiRankMatchesSerialWithSameIterations) {
  const int nranks = 3;
  auto p = make_problem(18, 18, 6, nranks, /*periodic=*/true);
  auto bounds = lanczos_bounds_serial(p);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;

  mg::Decomposition d1(18, 18, true, p.stencil->mask(), 18, 18, 1);
  mu::Field x_serial(18, 18, 0.0);
  int serial_iters = 0;
  {
    mc::SerialComm comm;
    mc::HaloExchanger halo(d1);
    ms::DistOperator a(*p.stencil, d1, 0);
    ms::DiagonalPreconditioner m(a);
    mc::DistField b(d1, 0), x(d1, 0);
    b.load_global(p.b_global);
    ms::BatchedPcsiSolver solver(bounds, opt);
    auto stats = ms::solve_one(solver, comm, halo, a, m, b, x);
    ASSERT_TRUE(stats.converged);
    serial_iters = stats.iterations;
    x.store_global(x_serial);
  }

  mu::Field x_parallel(18, 18, 0.0);
  mc::ThreadTeam team(nranks);
  mc::HaloExchanger halo(*p.decomp);
  team.run([&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    ms::DiagonalPreconditioner m(a);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    ms::BatchedPcsiSolver solver(bounds, opt);
    auto stats = ms::solve_one(solver, comm, halo, a, m, b, x);
    EXPECT_TRUE(stats.converged);
    // P-CSI iterations are scalar-recurrence-driven: identical across
    // decompositions (no inner products in the iteration itself).
    EXPECT_EQ(stats.iterations, serial_iters);
    x.store_global(x_parallel);
  });
  EXPECT_LT(max_abs_err(x_parallel, x_serial),
            1e-7 * std::max(1.0, max_abs(x_serial)));
}

TEST(Lanczos, BoundsBracketDenseSpectrum) {
  auto p = make_problem(12, 10, 12, 1);
  // Dense spectrum of D^{-1/2} A D^{-1/2} (same as M^{-1}A for diagonal M).
  auto a = p.stencil->to_dense();
  const int n = a.rows();
  ml::DenseMatrix scaled(n, n);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      scaled(r, c) = a(r, c) / std::sqrt(a(r, r) * a(c, c));
  auto eig = ml::symmetric_eigenvalues(scaled);

  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(op);
  ms::LanczosOptions lopt;
  lopt.max_steps = 120;
  lopt.rel_tolerance = 1e-8;
  lopt.safety_margin = 0.0;
  auto res = ms::estimate_eigenvalue_bounds(comm, halo, op, m, lopt);

  // Lanczos converges from inside the spectrum.
  EXPECT_GE(res.raw.nu, eig.front() - 1e-8);
  EXPECT_LE(res.raw.mu, eig.back() + 1e-8);
  // And with this many steps it should be essentially exact.
  EXPECT_NEAR(res.raw.nu, eig.front(), 0.02 * eig.back());
  EXPECT_NEAR(res.raw.mu, eig.back(), 0.02 * eig.back());
}

TEST(Lanczos, PaperToleranceStopsEarly) {
  auto p = make_problem(20, 18, 20, 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(op);
  ms::LanczosOptions lopt;  // rel_tolerance = 0.15 (paper)
  auto res = ms::estimate_eigenvalue_bounds(comm, halo, op, m, lopt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.steps, 25);
  EXPECT_GT(res.bounds.mu, res.bounds.nu);
  EXPECT_GT(res.bounds.nu, 0.0);
}

TEST(Lanczos, DeterministicAcrossRankCounts) {
  auto p = make_problem(16, 16, 8, 2);
  ms::LanczosOptions lopt;
  lopt.max_steps = 12;
  lopt.rel_tolerance = -1.0;  // fixed steps

  ms::EigenBounds serial_bounds;
  {
    mg::Decomposition d1(16, 16, false, p.stencil->mask(), 16, 16, 1);
    mc::SerialComm comm;
    mc::HaloExchanger halo(d1);
    ms::DistOperator a(*p.stencil, d1, 0);
    ms::DiagonalPreconditioner m(a);
    serial_bounds = ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).raw;
  }
  mc::ThreadTeam team(2);
  mc::HaloExchanger halo(*p.decomp);
  team.run([&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    ms::DiagonalPreconditioner m(a);
    auto res = ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt);
    // The start vector is a function of the global index, so estimates
    // agree across decompositions up to reduction rounding.
    EXPECT_NEAR(res.raw.nu, serial_bounds.nu, 1e-9);
    EXPECT_NEAR(res.raw.mu, serial_bounds.mu, 1e-9);
  });
}

TEST(FieldOps, LincombAxpyScale) {
  mu::MaskArray mask(8, 8, 1);
  mg::Decomposition d(8, 8, false, mask, 8, 8, 1);
  mc::SerialComm comm;
  // All-ocean plan: one full span per row.
  const ms::SpanPlan plan{ms::BlockSpans(mask.data(), mask.nx(), 8, 8)};
  mc::DistField x(d, 0), y(d, 0);
  ms::fill_interior(x, 2.0);
  ms::fill_interior(y, 3.0);
  const double two = 2.0, minus_one = -1.0, three = 3.0, half = 0.5;
  ms::lincomb(comm, &two, x, &minus_one, y, plan);  // y = 2*2 - 3 = 1
  EXPECT_DOUBLE_EQ(y.at(0, 4, 4), 1.0);
  ms::axpy(comm, &three, x, y, plan);  // y = 1 + 6 = 7
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0), 7.0);
  ms::scale(comm, &half, y, plan);
  EXPECT_DOUBLE_EQ(y.at(0, 7, 7), 3.5);
  ms::copy_interior(x, y);
  EXPECT_DOUBLE_EQ(y.at(0, 3, 3), 2.0);
  EXPECT_GT(comm.costs().counters().flops, 0u);
}
