// Resilience-layer tests: the ConvergenceGuard failure taxonomy, the
// solvers' typed failure returns (NaN, breakdown, zero RHS, stall), the
// BatchedResilientSolver recovery chain on single (width-1) solves
// (restart → re-estimate bounds → fall back → give up), ThreadComm
// receive timeouts with the resync fence, and the deterministic fault
// injector. Full-solve fault
// campaigns (hooks live in the comm/solver layers) run only when the
// build compiles them in (-DMINIPOP_FAULTS=ON); the injector's own unit
// tests drive its methods directly and run in every build.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/fault/fault_injector.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/lanczos.hpp"
#include "src/solver/pcg.hpp"
#include "src/solver/pipelined_cg.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mf = minipop::fault;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

Problem make_problem(int nx, int ny, int block, int nranks,
                     std::uint64_t seed = 11) {
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  const double phi = mg::barotropic_phi(600.0);
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, phi);
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, /*periodic_x=*/false, p.stencil->mask(), block, block, nranks);
  mu::Xoshiro256 rng(seed);
  p.b_global = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

void expect_fields_bitwise(const mu::Field& a, const mu::Field& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
}

#if MINIPOP_FAULTS
void expect_fields_near(const mu::Field& a, const mu::Field& ref,
                        double rel) {
  ASSERT_EQ(a.nx(), ref.nx());
  ASSERT_EQ(a.ny(), ref.ny());
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      ASSERT_NEAR(a(i, j), ref(i, j), rel * scale)
          << "at (" << i << ", " << j << ")";
}
#endif  // MINIPOP_FAULTS

void expect_stats_bitwise(const ms::SolveStats& a, const ms::SolveStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.relative_residual, b.relative_residual);
  ASSERT_EQ(a.residual_history.size(), b.residual_history.size());
  for (std::size_t k = 0; k < a.residual_history.size(); ++k) {
    EXPECT_EQ(a.residual_history[k].first, b.residual_history[k].first);
    EXPECT_EQ(a.residual_history[k].second, b.residual_history[k].second);
  }
}

ms::EigenBounds lanczos_bounds_serial(const Problem& p) {
  mg::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                       p.stencil->periodic_x(), p.stencil->mask(),
                       p.stencil->nx(), p.stencil->ny(), 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(d1);
  ms::DistOperator a(*p.stencil, d1, 0);
  ms::DiagonalPreconditioner m(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  return ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
}

using SolverFactory =
    std::function<std::unique_ptr<ms::BatchedSolver>(int rank)>;

/// One width-1 solve with a diagonal preconditioner over `nranks`
/// virtual ranks (1 = SerialComm). Returns the gathered solution,
/// rank-0 stats, and — when the factory produced a
/// BatchedResilientSolver — rank 0's recovery log.
struct SolveRun {
  mu::Field x;
  ms::SolveStats stats;
  std::vector<ms::RecoveryEvent> events;
};

SolveRun run_with(const Problem& p, int nranks, const SolverFactory& make,
             const mu::Field* b_override = nullptr,
             double recv_timeout_ms = 0.0) {
  SolveRun out;
  out.x = mu::Field(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  std::vector<ms::SolveStats> stats(nranks);
  mc::HaloExchanger halo(*p.decomp);
  const mu::Field& bg = b_override ? *b_override : p.b_global;
  auto body = [&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    ms::DiagonalPreconditioner m(a);
    std::unique_ptr<ms::BatchedSolver> s = make(comm.rank());
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(bg);
    stats[comm.rank()] = ms::solve_one(*s, comm, halo, a, m, b, x);
    x.store_global(out.x);  // disjoint interiors; no race
    if (comm.rank() == 0)
      if (auto* rs = dynamic_cast<ms::BatchedResilientSolver*>(s.get()))
        out.events = rs->events();
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    if (recv_timeout_ms > 0.0) team.set_recv_timeout(recv_timeout_ms);
    team.run(body);
  }
  out.stats = stats[0];
  return out;
}

SolverFactory make_kind(const std::string& kind, const ms::SolverOptions& opt,
                        ms::EigenBounds bounds = {1.0, 2.0}) {
  return [kind, opt, bounds](int) -> std::unique_ptr<ms::BatchedSolver> {
    if (kind == "cg")
      return std::make_unique<ms::BatchedChronGearSolver>(opt);
    if (kind == "pcg")
      return std::make_unique<ms::SequentialBatchedSolver>(
          std::make_unique<ms::PcgSolver>(opt));
    if (kind == "pipecg")
      return std::make_unique<ms::SequentialBatchedSolver>(
          std::make_unique<ms::PipelinedCgSolver>(opt));
    return std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
  };
}

const std::vector<std::string> kAllKinds = {"cg", "pcg", "pcsi", "pipecg"};

}  // namespace

// ---------------------------------------------------------------------
// ConvergenceGuard + FailureKind taxonomy
// ---------------------------------------------------------------------

TEST(ConvergenceGuardTest, FlagsNan) {
  ms::SolverOptions opt;
  ms::ConvergenceGuard g(opt);
  EXPECT_EQ(g.check(0.5), ms::FailureKind::kNone);
  EXPECT_EQ(g.check(std::numeric_limits<double>::quiet_NaN()),
            ms::FailureKind::kNanDetected);
  EXPECT_EQ(g.check(std::numeric_limits<double>::infinity()),
            ms::FailureKind::kNanDetected);
}

TEST(ConvergenceGuardTest, FlagsDivergenceRelativeToFirstCheck) {
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-12;
  opt.divergence_factor = 10.0;
  ms::ConvergenceGuard g(opt);
  EXPECT_EQ(g.check(1.0), ms::FailureKind::kNone);  // first_ = 1
  EXPECT_EQ(g.check(9.0), ms::FailureKind::kNone);
  EXPECT_EQ(g.check(11.0), ms::FailureKind::kDiverged);
}

TEST(ConvergenceGuardTest, DivergenceNeverTripsBelowTolerance) {
  // A residual already at the target is never "divergence", no matter
  // how small the first checked value was.
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-2;
  opt.divergence_factor = 10.0;
  ms::ConvergenceGuard g(opt);
  EXPECT_EQ(g.check(1e-20), ms::FailureKind::kNone);
  EXPECT_EQ(g.check(1e-3), ms::FailureKind::kNone);
}

TEST(ConvergenceGuardTest, FlagsStagnationAfterWindow) {
  ms::SolverOptions opt;
  opt.stagnation_window = 3;
  opt.stagnation_decrease = 1e-3;
  ms::ConvergenceGuard g(opt);
  EXPECT_EQ(g.check(1.0), ms::FailureKind::kNone);     // best = 1
  EXPECT_EQ(g.check(1.0), ms::FailureKind::kNone);     // stalled 1
  EXPECT_EQ(g.check(0.9999), ms::FailureKind::kNone);  // stalled 2
  EXPECT_EQ(g.check(1.0), ms::FailureKind::kStagnated);
}

TEST(ConvergenceGuardTest, ProgressResetsStagnationWindow) {
  ms::SolverOptions opt;
  opt.stagnation_window = 2;
  ms::ConvergenceGuard g(opt);
  EXPECT_EQ(g.check(1.0), ms::FailureKind::kNone);
  EXPECT_EQ(g.check(1.0), ms::FailureKind::kNone);  // stalled 1
  EXPECT_EQ(g.check(0.5), ms::FailureKind::kNone);  // progress: reset
  EXPECT_EQ(g.check(0.5), ms::FailureKind::kNone);  // stalled 1 again
  EXPECT_EQ(g.check(0.5), ms::FailureKind::kStagnated);
}

TEST(ConvergenceGuardTest, DisabledStagnationNeverTrips) {
  ms::SolverOptions opt;  // stagnation_window = 0 (default): disabled
  ms::ConvergenceGuard g(opt);
  for (int k = 0; k < 100; ++k)
    EXPECT_EQ(g.check(1.0), ms::FailureKind::kNone);
}

TEST(FailureKinds, ToStringCoversEveryKind) {
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kNone), "none");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kMaxIters), "max_iters");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kStagnated), "stagnated");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kDiverged), "diverged");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kBreakdown), "breakdown");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kNanDetected),
               "nan_detected");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kCommTimeout),
               "comm_timeout");
}

// ---------------------------------------------------------------------
// Typed failure returns from the solvers themselves
// ---------------------------------------------------------------------

TEST(Detection, ZeroRhsReturnsConvergedZeroForEverySolver) {
  Problem p = make_problem(24, 20, 8, 1);
  const mu::Field zero(24, 20, 0.0);
  ms::SolverOptions opt;
  for (const std::string& kind : kAllKinds) {
    for (const bool overlap : {false, true}) {
      SCOPED_TRACE(kind + (overlap ? "+overlap" : ""));
      ms::SolverOptions o = opt;
      o.overlap = overlap;
      SolveRun r = run_with(p, 1, make_kind(kind, o), &zero);
      EXPECT_TRUE(r.stats.converged);
      EXPECT_EQ(r.stats.iterations, 0);
      EXPECT_EQ(r.stats.failure, ms::FailureKind::kNone);
      for (const double v : r.x) EXPECT_EQ(v, 0.0);
    }
  }
}

TEST(Detection, NanRhsDetectedWithinOneCheckWindow) {
  Problem p = make_problem(24, 20, 8, 1);
  mu::Field bad = p.b_global;
  bool planted = false;
  for (int j = 0; j < bad.ny() && !planted; ++j)
    for (int i = 0; i < bad.nx() && !planted; ++i)
      if (p.stencil->mask()(i, j)) {
        bad(i, j) = std::numeric_limits<double>::quiet_NaN();
        planted = true;
      }
  ASSERT_TRUE(planted);
  ms::SolverOptions opt;
  for (const std::string& kind : kAllKinds) {
    for (const bool overlap : {false, true}) {
      SCOPED_TRACE(kind + (overlap ? "+overlap" : ""));
      ms::SolverOptions o = opt;
      o.overlap = overlap;
      SolveRun r = run_with(p, 1, make_kind(kind, o), &bad);
      EXPECT_FALSE(r.stats.converged);
      EXPECT_EQ(r.stats.failure, ms::FailureKind::kNanDetected);
      // Detected no later than the first check window — never a full
      // max_iterations run on poisoned data.
      EXPECT_LE(r.stats.iterations, o.check_frequency);
    }
  }
}

TEST(Detection, NanRhsDetectedOnEveryRankOfATeam) {
  Problem p = make_problem(32, 24, 8, 4);
  mu::Field bad = p.b_global;
  bool planted = false;
  // Plant the NaN in the LAST masked cell so a non-owning rank must
  // learn about it through the reduction, not from local data.
  for (int j = bad.ny() - 1; j >= 0 && !planted; --j)
    for (int i = bad.nx() - 1; i >= 0 && !planted; --i)
      if (p.stencil->mask()(i, j)) {
        bad(i, j) = std::numeric_limits<double>::quiet_NaN();
        planted = true;
      }
  ASSERT_TRUE(planted);
  ms::SolverOptions opt;
  for (const std::string& kind : {std::string("cg"), std::string("pcsi")}) {
    SCOPED_TRACE(kind);
    SolveRun r = run_with(p, 4, make_kind(kind, opt));
    (void)r;  // baseline sanity: the fault-free problem converges
    SolveRun f = run_with(p, 4, make_kind(kind, opt), &bad);
    EXPECT_FALSE(f.stats.converged);
    EXPECT_EQ(f.stats.failure, ms::FailureKind::kNanDetected);
    EXPECT_LE(f.stats.iterations, opt.check_frequency);
  }
}

namespace {

/// Bowl bathymetry with an island and a coast-to-island wall pierced by
/// a one-cell strait (22 x 18, 11 x 9 blocks, one rank) — the masked
/// topologies POP's production grids throw at the solver.
Problem make_island_strait_problem() {
  constexpr int nx = 22, ny = 18;
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  p.depth(11, 9) = 0.0;  // island
  p.depth(12, 9) = 0.0;
  for (int j = 0; j < 5; ++j) p.depth(6, j) = 0.0;  // wall from the coast…
  p.depth(6, 2) = 120.0;                            // …pierced by a strait
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, 1e-6);
  p.decomp = std::make_unique<mg::Decomposition>(nx, ny, false,
                                                 p.stencil->mask(), 11, 9, 1);
  mu::Xoshiro256 rng(3);
  p.b_global = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

}  // namespace

// A tolerance below what fp64 round-off can reach stalls P-CSI at its
// accuracy floor; the ConvergenceGuard's stagnation window turns the
// stall into a typed kStagnated failure instead of burning the whole
// iteration budget. (P-CSI, not ChronGear: ChronGear's recurrence
// residual keeps shrinking past the true residual's floor.)
TEST(Detection, PcsiStallBelowFp64FloorIsTypedStagnated) {
  Problem p = make_island_strait_problem();
  mc::HaloExchanger halo(*p.decomp);
  mc::SerialComm comm;
  for (const auto precond : {ms::PreconditionerKind::kDiagonal,
                             ms::PreconditionerKind::kBlockEvp}) {
    SCOPED_TRACE(ms::to_string(precond));
    ms::SolverConfig cfg;
    cfg.solver = ms::SolverKind::kPcsi;
    cfg.preconditioner = precond;
    cfg.options.rel_tolerance = 1e-18;
    cfg.options.stagnation_window = 3;
    cfg.lanczos.rel_tolerance = 0.02;
    cfg.resilient = false;
    ms::BarotropicSolver solver(comm, halo, *p.grid, p.depth, *p.stencil,
                                *p.decomp, cfg);
    mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
    b.load_global(p.b_global);
    const ms::SolveStats stats = solver.solve(comm, b, x);
    EXPECT_FALSE(stats.converged);
    EXPECT_EQ(stats.failure, ms::FailureKind::kStagnated);
    // It stalled at the fp64 floor, well inside the budget.
    EXPECT_LT(stats.relative_residual, 1e-12);
    EXPECT_LT(stats.iterations, 1000);
  }
}

// ---------------------------------------------------------------------
// BatchedResilientSolver on single solves: decorator transparency +
// recovery chain
// ---------------------------------------------------------------------

TEST(Resilient, FaultFreeDecoratedSolveIsBitwiseIdentical) {
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  for (const std::string& kind : {std::string("cg"), std::string("pcsi")}) {
    for (const int nranks : {1, 4}) {
      SCOPED_TRACE(kind + " nranks=" + std::to_string(nranks));
      Problem p = make_problem(32, 24, 8, nranks);
      const ms::EigenBounds bounds = lanczos_bounds_serial(p);
      SolveRun raw = run_with(p, nranks, make_kind(kind, opt, bounds));
      SolveRun dec = run_with(
          p, nranks,
          [&](int) -> std::unique_ptr<ms::BatchedSolver> {
            return std::make_unique<ms::BatchedResilientSolver>(
                make_kind(kind, opt, bounds)(0));
          });
      ASSERT_TRUE(raw.stats.converged);
      expect_stats_bitwise(dec.stats, raw.stats);
      expect_fields_bitwise(dec.x, raw.x);
      EXPECT_TRUE(dec.events.empty());
    }
  }
}

namespace {

/// Options under which P-CSI with a wildly wrong eigenvalue interval
/// diverges and is flagged quickly.
ms::SolverOptions fast_guard_options() {
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.check_frequency = 5;
  opt.divergence_factor = 1e4;
  return opt;
}

/// An interval far below the diagonally preconditioned spectrum: the
/// Chebyshev contraction turns into amplification and the residual
/// grows by orders of magnitude per iteration.
const ms::EigenBounds kBadBounds = {0.01, 0.02};

}  // namespace

TEST(Resilient, PcsiBadBoundsReestimatedViaLanczos) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::SolverOptions opt = fast_guard_options();
  SolveRun dec = run_with(p, 1, [&](int) -> std::unique_ptr<ms::BatchedSolver> {
    return std::make_unique<ms::BatchedResilientSolver>(
        std::make_unique<ms::BatchedPcsiSolver>(kBadBounds, opt));
  });
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_EQ(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].action, "reestimate_bounds");
  EXPECT_EQ(dec.events[0].solver, "pcsi");
  EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kDiverged);
  EXPECT_LE(dec.stats.relative_residual, opt.rel_tolerance);
}

TEST(Resilient, RestartThenFallbackWhenPrimaryKeepsFailing) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::SolverOptions opt = fast_guard_options();
  // Without re-estimation a deterministic solver fails identically on
  // restart, so the chain must walk: restart → fallback → ChronGear.
  ms::RecoveryPolicy pol;
  pol.max_restarts = 1;
  pol.reestimate_bounds = false;
  SolveRun dec = run_with(p, 1, [&](int) -> std::unique_ptr<ms::BatchedSolver> {
    auto rs = std::make_unique<ms::BatchedResilientSolver>(
        std::make_unique<ms::BatchedPcsiSolver>(kBadBounds, opt), pol);
    rs->add_fallback(std::make_unique<ms::BatchedChronGearSolver>(opt));
    return rs;
  });
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_EQ(dec.events.size(), 2u);
  EXPECT_EQ(dec.events[0].action, "restart");
  EXPECT_EQ(dec.events[0].solver, "pcsi");
  EXPECT_EQ(dec.events[0].attempt, 0);
  EXPECT_EQ(dec.events[1].action, "fallback");
  EXPECT_EQ(dec.events[1].solver, "pcsi");
  EXPECT_EQ(dec.events[1].attempt, 1);
  // The fallback restarts from the sanitized entry checkpoint, so its
  // answer is bitwise the plain ChronGear answer from the same start.
  SolveRun raw = run_with(p, 1, make_kind("cg", opt));
  ASSERT_TRUE(raw.stats.converged);
  expect_fields_bitwise(dec.x, raw.x);
}

TEST(Resilient, GiveUpReturnsTypedFailure) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::SolverOptions opt = fast_guard_options();
  ms::RecoveryPolicy pol;
  pol.max_restarts = 0;
  pol.reestimate_bounds = false;
  SolveRun dec = run_with(p, 1, [&](int) -> std::unique_ptr<ms::BatchedSolver> {
    return std::make_unique<ms::BatchedResilientSolver>(
        std::make_unique<ms::BatchedPcsiSolver>(kBadBounds, opt), pol);
  });
  EXPECT_FALSE(dec.stats.converged);
  EXPECT_EQ(dec.stats.failure, ms::FailureKind::kDiverged);
  ASSERT_EQ(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].action, "give_up");
}

TEST(Resilient, NameWrapsPrimary) {
  ms::BatchedResilientSolver rs(
      std::make_unique<ms::BatchedChronGearSolver>(ms::SolverOptions{}));
  EXPECT_EQ(rs.name(), "resilient(chrongear)");
}

// ---------------------------------------------------------------------
// ThreadComm receive timeouts + the resync fence
// ---------------------------------------------------------------------

TEST(Timeouts, LateSendWithinTimeoutDelivers) {
  mc::ThreadTeam team(2);
  team.set_recv_timeout(4000.0, 4);
  std::vector<double> got(1, 0.0);
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      double v = 42.5;
      comm.isend(0, 3, std::span<const double>(&v, 1)).wait();
    } else {
      double v = 0.0;
      comm.irecv(1, 3, std::span<double>(&v, 1)).wait();
      got[0] = v;
    }
  });
  EXPECT_EQ(got[0], 42.5);
}

TEST(Timeouts, MissingMessageThrowsAndResyncRestoresTeam) {
  mc::ThreadTeam team(2);
  team.set_recv_timeout(150.0, 3);
  std::vector<int> caught(2, 0);
  std::vector<double> sum(2, 0.0);
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 0) {
      // Nobody ever sends on (src=1, tag=7): must throw, not hang.
      double v = 0.0;
      try {
        comm.irecv(1, 7, std::span<double>(&v, 1)).wait();
      } catch (const mc::CommTimeoutError&) {
        caught[0] = 1;
      }
    } else {
      // The other rank is pushed out of its blocking call by the
      // team-wide timeout flag instead of deadlocking in the barrier.
      try {
        comm.barrier();
      } catch (const mc::CommTimeoutError&) {
        caught[1] = 1;
      }
    }
    comm.resync();
    // After the fence the team is fully usable again.
    double s = comm.rank() + 1.0;
    comm.iallreduce(std::span<double>(&s, 1), mc::ReduceOp::kSum).wait();
    sum[comm.rank()] = s;
  });
  EXPECT_EQ(caught[0], 1);
  EXPECT_EQ(caught[1], 1);
  EXPECT_EQ(sum[0], 3.0);
  EXPECT_EQ(sum[1], 3.0);
}

TEST(Timeouts, ZeroTimeoutMeansInfiniteWait) {
  // total_ms <= 0 restores the default blocking wait; a prompt sender
  // must still be received normally.
  mc::ThreadTeam team(2);
  team.set_recv_timeout(150.0, 3);
  team.set_recv_timeout(0.0);
  std::vector<double> got(1, 0.0);
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 1) {
      double v = -7.25;
      comm.isend(0, 9, std::span<const double>(&v, 1)).wait();
    } else {
      double v = 0.0;
      comm.irecv(1, 9, std::span<double>(&v, 1)).wait();
      got[0] = v;
    }
  });
  EXPECT_EQ(got[0], -7.25);
}

TEST(Timeouts, SerialResyncIsANoOp) {
  mc::SerialComm comm;
  comm.resync();  // must not throw
  double v = 4.0;
  comm.iallreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum).wait();
  EXPECT_EQ(v, 4.0);
}

// ---------------------------------------------------------------------
// FaultInjector unit tests (direct-drive; run in every build)
// ---------------------------------------------------------------------

namespace {

/// A 4x4 all-wet tile for driving the solver-vector site directly.
struct Tile {
  std::vector<double> data = std::vector<double>(16, 1.0);
  std::vector<unsigned char> mask = std::vector<unsigned char>(16, 1);
};

void drive_solver_vector(mf::FaultInjector& inj, Tile& t, int rank = 0) {
  inj.solver_vector(rank, t.data.data(), 4, 4, 4, t.mask.data(), 4);
}

}  // namespace

TEST(FaultInjector, ScheduledRuleFiresAtExactEvent) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kSolverVector;
  r.trigger_event = 2;
  r.make_nan = true;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  Tile t;
  drive_solver_vector(inj, t);  // event 0
  drive_solver_vector(inj, t);  // event 1
  EXPECT_EQ(inj.fire_count(), 0);
  for (const double v : t.data) EXPECT_EQ(v, 1.0);
  drive_solver_vector(inj, t);  // event 2: fires
  ASSERT_EQ(inj.fire_count(), 1);
  int nans = 0;
  for (const double v : t.data) nans += std::isnan(v) ? 1 : 0;
  EXPECT_EQ(nans, 1);
  const auto fired = inj.fired();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].site, mf::FaultSite::kSolverVector);
  EXPECT_EQ(fired[0].rank, 0);
  EXPECT_EQ(fired[0].event, 2);
  EXPECT_EQ(inj.events(mf::FaultSite::kSolverVector, 0), 3);
  // max_fires = 1 (default): the rule is spent.
  drive_solver_vector(inj, t);
  EXPECT_EQ(inj.fire_count(), 1);
}

TEST(FaultInjector, RankFilterKeepsOtherRanksClean) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kSolverVector;
  r.rank = 1;
  r.trigger_event = 0;
  r.make_nan = true;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  Tile t0, t1;
  drive_solver_vector(inj, t0, /*rank=*/0);
  for (const double v : t0.data) EXPECT_EQ(v, 1.0);
  drive_solver_vector(inj, t1, /*rank=*/1);
  int nans = 0;
  for (const double v : t1.data) nans += std::isnan(v) ? 1 : 0;
  EXPECT_EQ(nans, 1);
}

TEST(FaultInjector, MaskRestrictsCorruptionToOceanCells) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kSolverVector;
  r.trigger_event = 0;
  r.max_fires = 0;  // unlimited
  r.make_nan = true;
  r.entries = 4;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  Tile t;
  // Only cell (1, 2) is wet.
  std::fill(t.mask.begin(), t.mask.end(), 0);
  t.mask[2 * 4 + 1] = 1;
  drive_solver_vector(inj, t);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) {
      const double v = t.data[j * 4 + i];
      if (i == 1 && j == 2)
        EXPECT_TRUE(std::isnan(v));
      else
        EXPECT_EQ(v, 1.0) << "dry cell (" << i << ", " << j << ") touched";
    }
}

TEST(FaultInjector, BitFlipChangesExactlyOneHaloEntry) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kHaloPayload;
  r.trigger_event = 0;
  r.bit = 51;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  std::vector<double> buf(12, 1.0);
  inj.halo_payload(0, buf.data(), buf.size());
  int changed = 0;
  for (const double v : buf)
    if (v != 1.0) ++changed;
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(inj.fire_count(), 1);
}

TEST(FaultInjector, MailboxDecisionCarriesActionAndDelay) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kMailbox;
  r.rank = 3;
  r.trigger_event = 1;
  r.mailbox = mf::MailboxAction::kDelay;
  r.delay_ms = 7.5;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  EXPECT_FALSE(inj.mailbox(3).fired);  // event 0
  const mf::MailboxDecision d = inj.mailbox(3);  // event 1: fires
  EXPECT_TRUE(d.fired);
  EXPECT_EQ(d.action, mf::MailboxAction::kDelay);
  EXPECT_EQ(d.delay_ms, 7.5);
  EXPECT_FALSE(inj.mailbox(3).fired);  // spent
}

TEST(FaultInjector, EigenBoundsScaledInPlace) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kEigenBounds;
  r.trigger_event = 0;
  r.nu_scale = -1.0;
  r.mu_scale = 2.0;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  double nu = 1.0, mu = 2.0;
  inj.eigen_bounds(0, &nu, &mu);
  EXPECT_EQ(nu, -1.0);
  EXPECT_EQ(mu, 4.0);
  inj.eigen_bounds(0, &nu, &mu);  // spent: untouched
  EXPECT_EQ(nu, -1.0);
  EXPECT_EQ(mu, 4.0);
}

TEST(FaultInjector, RankStallSleepsForConfiguredTime) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kRankStall;
  r.trigger_event = 0;
  r.delay_ms = 30.0;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultInjector inj(plan);
  const auto t0 = std::chrono::steady_clock::now();
  inj.rank_stall(0);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed_ms, 25.0);
}

TEST(FaultInjector, ProbabilisticPlanReplaysIdentically) {
  mf::FaultRule r;
  r.site = mf::FaultSite::kSolverVector;
  r.probability = 0.3;
  r.max_fires = 0;  // unlimited
  r.bit = 12;
  mf::FaultPlan plan;
  plan.seed = 99;
  plan.add(r);

  auto campaign = [&plan]() {
    mf::FaultInjector inj(plan);
    Tile t;
    for (int e = 0; e < 100; ++e) drive_solver_vector(inj, t);
    return std::make_pair(inj.fired(), t.data);
  };
  const auto [fired_a, data_a] = campaign();
  const auto [fired_b, data_b] = campaign();
  EXPECT_GT(fired_a.size(), 0u);
  ASSERT_EQ(fired_a.size(), fired_b.size());
  for (std::size_t k = 0; k < fired_a.size(); ++k) {
    EXPECT_EQ(fired_a[k].site, fired_b[k].site);
    EXPECT_EQ(fired_a[k].rank, fired_b[k].rank);
    EXPECT_EQ(fired_a[k].event, fired_b[k].event);
  }
  // Same faults, same bits: the corrupted tiles are bitwise identical.
  for (std::size_t k = 0; k < data_a.size(); ++k)
    EXPECT_EQ(data_a[k], data_b[k]);
}

TEST(FaultInjector, InstallAndScopeLifetime) {
  EXPECT_EQ(mf::FaultInjector::active(), nullptr);
  {
    mf::FaultScope scope{mf::FaultPlan{}};
    EXPECT_EQ(mf::FaultInjector::active(), &scope.injector());
  }
  EXPECT_EQ(mf::FaultInjector::active(), nullptr);
}

// ---------------------------------------------------------------------
// Full-solve fault campaigns (need the hooks compiled in)
// ---------------------------------------------------------------------
#if MINIPOP_FAULTS

TEST(FaultCampaign, SolverVectorNanDetectedAndRecovered) {
  Problem p = make_problem(32, 24, 8, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  mf::FaultRule r;
  r.site = mf::FaultSite::kSolverVector;
  r.make_nan = true;
  r.trigger_event = 6;
  mf::FaultPlan plan;
  plan.add(r);

  SolveRun clean = run_with(p, 1, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  {
    // Raw solver: the NaN is detected the same iteration it lands (it
    // poisons the fused rho/sigma reduction), never silently returned.
    mf::FaultScope scope(plan);
    SolveRun raw = run_with(p, 1, make_kind("cg", opt));
    EXPECT_EQ(scope.injector().fire_count(), 1);
    EXPECT_FALSE(raw.stats.converged);
    EXPECT_EQ(raw.stats.failure, ms::FailureKind::kNanDetected);
    EXPECT_LT(raw.stats.iterations, clean.stats.iterations);
  }
  {
    // Decorated: one restart from the entry checkpoint replays the
    // fault-free solve exactly (the rule is spent after one fire).
    mf::FaultScope scope(plan);
    SolveRun dec = run_with(p, 1, [&](int) {
      return std::unique_ptr<ms::BatchedSolver>(
          std::make_unique<ms::BatchedResilientSolver>(
              make_kind("cg", opt)(0)));
    });
    EXPECT_TRUE(dec.stats.converged);
    ASSERT_GE(dec.events.size(), 1u);
    EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kNanDetected);
    EXPECT_EQ(dec.events[0].action, "restart");
    expect_fields_bitwise(dec.x, clean.x);
  }
}

TEST(FaultCampaign, HaloBitFlipRecoversToFaultFreeAnswer) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  SolveRun clean = run_with(p, 4, make_kind("pcsi", opt, bounds));
  ASSERT_TRUE(clean.stats.converged);

  // Flip the top exponent bit of one entry of a packed halo send: the
  // payload lands in a stencil sweep and either overflows to inf/NaN
  // (detected, restarted) or perturbs the iterate (P-CSI's true-residual
  // check forces extra iterations). Both paths must end at the
  // fault-free answer because convergence is judged on b - Ax itself.
  mf::FaultRule r;
  r.site = mf::FaultSite::kHaloPayload;
  r.rank = 1;
  r.trigger_event = 6;
  r.bit = 62;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultScope scope(plan);
  SolveRun dec = run_with(p, 4, [&](int) {
    return std::unique_ptr<ms::BatchedSolver>(
        std::make_unique<ms::BatchedResilientSolver>(
            make_kind("pcsi", opt, bounds)(0)));
  });
  EXPECT_EQ(scope.injector().fire_count(), 1);
  EXPECT_TRUE(dec.stats.converged);
  EXPECT_LE(dec.stats.relative_residual, opt.rel_tolerance);
  expect_fields_near(dec.x, clean.x, 1e-4);
}

TEST(FaultCampaign, DroppedMessageTimesOutThenRecovers) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  SolveRun clean = run_with(p, 4, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  mf::FaultRule r;
  r.site = mf::FaultSite::kMailbox;
  r.rank = 1;
  r.trigger_event = 6;
  r.mailbox = mf::MailboxAction::kDrop;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultScope scope(plan);
  SolveRun dec = run_with(
      p, 4,
      [&](int) {
        return std::unique_ptr<ms::BatchedSolver>(
            std::make_unique<ms::BatchedResilientSolver>(
                make_kind("cg", opt)(0)));
      },
      nullptr, /*recv_timeout_ms=*/500.0);
  EXPECT_EQ(scope.injector().fire_count(), 1);
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_GE(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kCommTimeout);
  // Post-resync restart from the entry checkpoint replays the fault-free
  // solve bit for bit.
  expect_fields_bitwise(dec.x, clean.x);
}

TEST(FaultCampaign, DelayedMessageUnderTimeoutIsHarmless) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  SolveRun clean = run_with(p, 4, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  mf::FaultRule r;
  r.site = mf::FaultSite::kMailbox;
  r.rank = 2;
  r.trigger_event = 5;
  r.mailbox = mf::MailboxAction::kDelay;
  r.delay_ms = 25.0;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultScope scope(plan);
  SolveRun late = run_with(p, 4, make_kind("cg", opt), nullptr,
                      /*recv_timeout_ms=*/5000.0);
  EXPECT_EQ(scope.injector().fire_count(), 1);
  // A late delivery changes only timing, never data or iteration counts.
  expect_stats_bitwise(late.stats, clean.stats);
  expect_fields_bitwise(late.x, clean.x);
}

TEST(FaultCampaign, DuplicatedMessageNeverHangsOrLiesAboutConvergence) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.max_iterations = 2000;
  mf::FaultRule r;
  r.site = mf::FaultSite::kMailbox;
  r.rank = 0;
  r.trigger_event = 5;
  r.mailbox = mf::MailboxAction::kDuplicate;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultScope scope(plan);
  // The stale duplicate shifts a channel's queue by one message for the
  // rest of the run: the contract is "recover or return a typed
  // failure", and above all: terminate.
  SolveRun dec = run_with(
      p, 4,
      [&](int) {
        return std::unique_ptr<ms::BatchedSolver>(
            std::make_unique<ms::BatchedResilientSolver>(
                make_kind("cg", opt)(0)));
      },
      nullptr, /*recv_timeout_ms=*/1000.0);
  EXPECT_EQ(scope.injector().fire_count(), 1);
  if (dec.stats.converged)
    EXPECT_LE(dec.stats.relative_residual, opt.rel_tolerance);
  else
    EXPECT_NE(dec.stats.failure, ms::FailureKind::kNone);
}

TEST(FaultCampaign, RankStallOnlyDelaysTheSolve) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  SolveRun clean = run_with(p, 4, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  mf::FaultRule r;
  r.site = mf::FaultSite::kRankStall;
  r.rank = 2;
  r.trigger_event = 3;
  r.delay_ms = 40.0;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultScope scope(plan);
  SolveRun stalled = run_with(p, 4, make_kind("cg", opt));
  EXPECT_EQ(scope.injector().fire_count(), 1);
  expect_stats_bitwise(stalled.stats, clean.stats);
  expect_fields_bitwise(stalled.x, clean.x);
}

TEST(FaultCampaign, CorruptedEigenBoundsReestimatedAndRecovered) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::SolverOptions opt = fast_guard_options();
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  SolveRun clean = run_with(p, 1, make_kind("pcsi", opt, bounds));
  ASSERT_TRUE(clean.stats.converged);

  // Scale the interval three orders of magnitude below the spectrum at
  // the first solve entry — a stale/corrupted Lanczos estimate.
  mf::FaultRule r;
  r.site = mf::FaultSite::kEigenBounds;
  r.trigger_event = 0;
  r.nu_scale = 1e-3;
  r.mu_scale = 1e-3;
  mf::FaultPlan plan;
  plan.add(r);
  mf::FaultScope scope(plan);
  SolveRun dec = run_with(p, 1, [&](int) {
    return std::unique_ptr<ms::BatchedSolver>(
        std::make_unique<ms::BatchedResilientSolver>(
            make_kind("pcsi", opt, bounds)(0)));
  });
  EXPECT_EQ(scope.injector().fire_count(), 1);
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_GE(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].action, "reestimate_bounds");
  expect_fields_near(dec.x, clean.x, 1e-4);
}

TEST(FaultCampaign, EmptyPlanInstalledIsBitwiseIdentical) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  SolveRun clean = run_with(p, 4, make_kind("cg", opt));
  mf::FaultScope scope{mf::FaultPlan{}};
  SolveRun scoped = run_with(p, 4, make_kind("cg", opt));
  EXPECT_EQ(scope.injector().fire_count(), 0);
  expect_stats_bitwise(scoped.stats, clean.stats);
  expect_fields_bitwise(scoped.x, clean.x);
}

#endif  // MINIPOP_FAULTS
