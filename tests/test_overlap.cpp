// Split-phase communication engine tests: Request semantics, split
// halo exchanges (including several in flight at once and tag-epoch
// wrap-around), the MINIPOP_BOUNDS_CHECK tag-reuse audit, and the
// engine's core contract — overlapped solvers are bitwise identical to
// the blocking path in iterates, iteration counts and residuals.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/perf/pop_timing_model.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/lanczos.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace me = minipop::evp;
namespace mg = minipop::grid;
namespace mp = minipop::perf;
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
                     bool periodic = false, std::uint64_t seed = 11) {
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = periodic;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
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
  return p;
}

mu::Field random_global(int nx, int ny, std::uint64_t seed) {
  mu::Field f(nx, ny, 0.0);
  mu::Xoshiro256 rng(seed);
  for (double& v : f) v = rng.uniform(-1, 1);
  return f;
}

void expect_fields_bitwise(const mu::Field& a, const mu::Field& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
}

void expect_stats_bitwise(const ms::SolveStats& a, const ms::SolveStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.relative_residual, b.relative_residual);
  // Callers record residuals: empty histories would compare vacuously.
  ASSERT_FALSE(a.residual_history.empty());
  ASSERT_EQ(a.residual_history.size(), b.residual_history.size());
  for (std::size_t k = 0; k < a.residual_history.size(); ++k) {
    EXPECT_EQ(a.residual_history[k].first, b.residual_history[k].first);
    EXPECT_EQ(a.residual_history[k].second, b.residual_history[k].second);
  }
}

ms::EigenBounds lanczos_bounds_serial(const Problem& p, bool evp) {
  mg::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                       p.stencil->periodic_x(), p.stencil->mask(),
                       p.stencil->nx(), p.stencil->ny(), 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(d1);
  ms::DistOperator a(*p.stencil, d1, 0);
  std::unique_ptr<ms::Preconditioner> m;
  if (evp)
    m = std::make_unique<me::BlockEvpPreconditioner>(a, *p.grid, p.depth,
                                                     me::BlockEvpOptions{});
  else
    m = std::make_unique<ms::DiagonalPreconditioner>(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  return ms::estimate_eigenvalue_bounds(comm, halo, a, *m, lopt).bounds;
}

/// One solver run on the problem's decomposition over `nranks` virtual
/// ranks (1 = SerialComm). Returns the gathered solution, rank-0 stats,
/// and per-rank iteration counts.
struct Run {
  mu::Field x;
  ms::SolveStats stats;
  std::vector<int> iters;
};

Run run_solver(const Problem& p, int nranks, const ms::SolverOptions& opt,
               const std::string& kind, bool evp_precond,
               ms::EigenBounds bounds = {1.0, 2.0}) {
  Run out;
  out.x = mu::Field(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  out.iters.resize(nranks);
  std::vector<ms::SolveStats> stats(nranks);
  mc::HaloExchanger halo(*p.decomp);

  auto body = [&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    std::unique_ptr<ms::Preconditioner> m;
    if (evp_precond)
      m = std::make_unique<me::BlockEvpPreconditioner>(
          a, *p.grid, p.depth, me::BlockEvpOptions{});
    else
      m = std::make_unique<ms::DiagonalPreconditioner>(a);
    std::unique_ptr<ms::BatchedSolver> s;
    if (kind == "cg")
      s = std::make_unique<ms::BatchedChronGearSolver>(opt);
    else
      s = std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    stats[comm.rank()] = ms::solve_one(*s, comm, halo, a, *m, b, x);
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
  for (int r = 0; r < nranks; ++r) out.iters[r] = stats[r].iterations;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Request semantics
// ---------------------------------------------------------------------

TEST(Requests, SerialAllreduceCompletesImmediately) {
  mc::SerialComm comm;
  double v[2] = {3.0, -1.5};
  mc::Request r = comm.iallreduce(std::span<double>(v, 2),
                                  mc::ReduceOp::kSum);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.test());
  r.wait();  // idempotent
  EXPECT_EQ(v[0], 3.0);  // size-1 reduction is the identity
  EXPECT_EQ(v[1], -1.5);
  EXPECT_EQ(comm.costs().counters().allreduces, 1u);
}

TEST(Requests, SerialPointToPointRejected) {
  mc::SerialComm comm;
  double v[1] = {0.0};
  EXPECT_THROW(comm.isend(0, 0, std::span<const double>(v, 1)),
               mu::Error);
  EXPECT_THROW(comm.irecv(0, 0, std::span<double>(v, 1)), mu::Error);
}

TEST(Requests, ThreadAllreduceFixedOrderDeterministic) {
  const int nranks = 4;
  // Values chosen so that summation order changes the rounded result.
  std::vector<double> contrib = {1.0e16, 1.0, -1.0e16, 1.0};
  double expected = contrib[0];
  for (int r = 1; r < nranks; ++r) expected += contrib[r];

  std::vector<double> got(nranks);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    double v = contrib[comm.rank()];
    comm.iallreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum).wait();
    got[comm.rank()] = v;
  });
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(got[r], expected);
}

TEST(Requests, MultipleOutstandingReductionsCompleteOutOfOrder) {
  const int nranks = 3;
  std::vector<double> sum1(nranks), sum2(nranks), maxv(nranks);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    double a = 1.0 + r;         // sum = 6
    double b[2] = {10.0 * r, static_cast<double>(r)};  // sum = {30, 3}
    mc::Request ra =
        comm.iallreduce(std::span<double>(&a, 1), mc::ReduceOp::kSum);
    mc::Request rb =
        comm.iallreduce(std::span<double>(b, 2), mc::ReduceOp::kMax);
    rb.wait();  // complete in reverse post order
    ra.wait();
    sum1[r] = a;
    sum2[r] = b[0];
    maxv[r] = b[1];
  });
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(sum1[r], 6.0);
    EXPECT_EQ(sum2[r], 20.0);  // max of {0, 10, 20}
    EXPECT_EQ(maxv[r], 2.0);
  }
}

TEST(Requests, SendRecvLifecycle) {
  mc::ThreadTeam team(2);
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> msg = {1.0, 2.0, 3.0};
      mc::Request s =
          comm.isend(1, 42, std::span<const double>(msg.data(), 3));
      EXPECT_TRUE(s.done());  // eager: complete at post time
      msg.assign(3, -9.0);    // buffer reusable immediately
    } else {
      std::vector<double> buf(3, 0.0);
      mc::Request r =
          comm.irecv(0, 42, std::span<double>(buf.data(), 3));
      r.wait();
      EXPECT_TRUE(r.done());
      EXPECT_EQ(buf[0], 1.0);
      EXPECT_EQ(buf[1], 2.0);
      EXPECT_EQ(buf[2], 3.0);
    }
  });
}

TEST(Requests, PostedTimeCoversExposedTime) {
  const int nranks = 3;
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      double v = comm.rank() + round;
      comm.iallreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum)
          .wait();
    }
  });
  for (int r = 0; r < nranks; ++r) {
    const auto& c = team.costs(r);
    EXPECT_EQ(c.requests, 5u);
    EXPECT_GE(c.posted_comm_seconds, c.exposed_comm_seconds);
    EXPECT_GE(c.exposed_comm_seconds, 0.0);
    EXPECT_GE(c.hidden_comm_seconds(), 0.0);
  }
}

// ---------------------------------------------------------------------
// Split-phase halo exchange
// ---------------------------------------------------------------------

TEST(SplitHalo, MatchesBlockingAtWidthsOneAndTwo) {
  for (int h : {1, 2}) {
    const int nranks = 4;
    auto p = make_problem(24, 16, 6, nranks, /*periodic=*/true);
    const auto global = random_global(24, 16, 77 + h);
    mc::HaloExchanger halo(*p.decomp);
    mc::ThreadTeam team(nranks);
    team.run([&](mc::Communicator& comm) {
      mc::DistField blocking(*p.decomp, comm.rank(), h);
      mc::DistField split(*p.decomp, comm.rank(), h);
      blocking.load_global(global);
      split.load_global(global);

      halo.exchange(comm, blocking);
      mc::HaloHandle inflight = halo.begin(comm, split);
      EXPECT_TRUE(inflight.active());
      inflight.finish();
      EXPECT_FALSE(inflight.active());

      for (int lb = 0; lb < blocking.num_local_blocks(); ++lb)
        expect_fields_bitwise(blocking.data(lb), split.data(lb));
    });
  }
}

TEST(SplitHalo, TwoInFlightExchangesFinishOutOfOrder) {
  const int nranks = 4;
  auto p = make_problem(24, 16, 6, nranks);
  const auto g1 = random_global(24, 16, 101);
  const auto g2 = random_global(24, 16, 202);
  mc::HaloExchanger halo(*p.decomp);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    mc::DistField ref1(*p.decomp, comm.rank()), ref2(*p.decomp,
                                                     comm.rank());
    mc::DistField f1(*p.decomp, comm.rank()), f2(*p.decomp, comm.rank());
    ref1.load_global(g1);
    ref2.load_global(g2);
    f1.load_global(g1);
    f2.load_global(g2);
    halo.exchange(comm, ref1);
    halo.exchange(comm, ref2);

    // Two exchanges in flight at once; the tag epochs keep their
    // messages apart even when completed in reverse order.
    mc::HaloHandle h1 = halo.begin(comm, f1);
    mc::HaloHandle h2 = halo.begin(comm, f2);
    h2.finish();
    h1.finish();

    for (int lb = 0; lb < f1.num_local_blocks(); ++lb) {
      expect_fields_bitwise(ref1.data(lb), f1.data(lb));
      expect_fields_bitwise(ref2.data(lb), f2.data(lb));
    }
  });
}

TEST(SplitHalo, EpochWindowWrapsAcrossManyExchanges) {
  const int nranks = 3;
  auto p = make_problem(18, 18, 6, nranks, /*periodic=*/true);
  const auto global = random_global(18, 18, 5);
  mc::HaloExchanger halo(*p.decomp);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    mc::DistField ref(*p.decomp, comm.rank());
    mc::DistField f(*p.decomp, comm.rank());
    ref.load_global(global);
    f.load_global(global);
    halo.exchange(comm, ref);
    // 3x the epoch window: each begin() draws a fresh epoch and the
    // counter wraps multiple times with exchanges completing in between.
    for (int k = 0; k < 3 * mc::Communicator::kTagEpochWindow; ++k) {
      mc::HaloHandle h = halo.begin(comm, f);
      h.finish();
    }
    for (int lb = 0; lb < f.num_local_blocks(); ++lb)
      expect_fields_bitwise(ref.data(lb), f.data(lb));
  });
}

TEST(SplitHalo, AbandonedHandleFinishesInDestructor) {
  const int nranks = 2;
  auto p = make_problem(12, 12, 6, nranks);
  const auto global = random_global(12, 12, 9);
  mc::HaloExchanger halo(*p.decomp);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    mc::DistField ref(*p.decomp, comm.rank());
    mc::DistField f(*p.decomp, comm.rank());
    ref.load_global(global);
    f.load_global(global);
    halo.exchange(comm, ref);
    {
      mc::HaloHandle h = halo.begin(comm, f);
      // dropped without finish(): destructor completes the exchange
    }
    for (int lb = 0; lb < f.num_local_blocks(); ++lb)
      expect_fields_bitwise(ref.data(lb), f.data(lb));
  });
}

#if MINIPOP_BOUNDS_CHECK
TEST(TagAudit, DetectsRecvPostedOnBusyChannel) {
  mc::ThreadTeam team(2);
  bool caught = false;
  try {
    team.run([&](mc::Communicator& comm) {
      if (comm.rank() != 1) return;
      std::vector<double> a(3, 0.0), b(3, 0.0);
      mc::Request r1 = comm.irecv(0, 7, std::span<double>(a.data(), 3));
      // Same (src, tag) while r1 is still outstanding: the audit must
      // fire — this is exactly what a reused tag epoch would look like.
      mc::Request r2 = comm.irecv(0, 7, std::span<double>(b.data(), 3));
      r2.wait();  // unreachable
    });
  } catch (const mu::Error& e) {
    caught = true;
    EXPECT_NE(std::string(e.what()).find("tag-epoch audit"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(caught);
}
#endif

// ---------------------------------------------------------------------
// Overlapped operator sweeps
// ---------------------------------------------------------------------

TEST(OverlapOperator, SweepsBitwiseIdenticalIncludingThinBlocks) {
  // block=6: regular interior/rim split; block=2: nx,ny <= 2 forces the
  // all-rim path (no interior).
  for (int block : {6, 2}) {
    const int nranks = 3;
    auto p = make_problem(18, 16, block, nranks, /*periodic=*/true);
    const auto global = random_global(18, 16, 31 + block);
    mc::HaloExchanger halo(*p.decomp);
    mc::ThreadTeam team(nranks);
    team.run([&](mc::Communicator& comm) {
      ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
      mc::DistField x(*p.decomp, comm.rank()), b(*p.decomp, comm.rank());
      mc::DistField y1(*p.decomp, comm.rank()), y2(*p.decomp, comm.rank());
      mc::DistField r1(*p.decomp, comm.rank()), r2(*p.decomp, comm.rank());
      x.load_global(global);
      b.load_global(p.b_global);

      a.apply_batch(comm, halo, x, y1);
      a.apply_overlapped_batch(comm, halo, x, y2);
      a.residual_batch(comm, halo, b, x, r1);
      a.residual_overlapped_batch(comm, halo, b, x, r2);
      for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
        expect_fields_bitwise(y1.data(lb), y2.data(lb));
        expect_fields_bitwise(r1.data(lb), r2.data(lb));
      }

      double n1 = 0.0, n2 = 0.0;
      a.residual_local_norm2_batch(comm, halo, b, x, r1, &n1);
      a.residual_local_norm2_overlapped_batch(comm, halo, b, x, r2, &n2);
      EXPECT_EQ(n1, n2);
      for (int lb = 0; lb < x.num_local_blocks(); ++lb)
        expect_fields_bitwise(r1.data(lb), r2.data(lb));
    });
  }
}

// ---------------------------------------------------------------------
// Overlapped solvers: the bitwise-identity contract
// ---------------------------------------------------------------------

TEST(OverlapSolvers, ChronGearBitwiseIdenticalSerialAndMultiRank) {
  for (int nranks : {1, 4}) {
    for (bool evp : {false, true}) {
      auto p = make_problem(24, 16, 6, nranks);
      ms::SolverOptions opt;
      opt.rel_tolerance = 1e-11;
      opt.record_residuals = true;
      auto blocking = run_solver(p, nranks, opt, "cg", evp);
      opt.overlap = true;
      auto overlapped = run_solver(p, nranks, opt, "cg", evp);
      ASSERT_TRUE(blocking.stats.converged);
      expect_stats_bitwise(blocking.stats, overlapped.stats);
      expect_fields_bitwise(blocking.x, overlapped.x);
      for (int r = 0; r < nranks; ++r)
        EXPECT_EQ(blocking.iters[r], overlapped.iters[r]);
    }
  }
}

TEST(OverlapSolvers, PcsiBitwiseIdenticalSerialAndMultiRank) {
  for (int nranks : {1, 3}) {
    for (bool evp : {false, true}) {
      auto p = make_problem(18, 18, 6, nranks, /*periodic=*/true);
      const auto bounds = lanczos_bounds_serial(p, evp);
      ms::SolverOptions opt;
      opt.rel_tolerance = 1e-10;
      opt.record_residuals = true;
      auto blocking = run_solver(p, nranks, opt, "pcsi", evp, bounds);
      opt.overlap = true;
      auto overlapped = run_solver(p, nranks, opt, "pcsi", evp, bounds);
      ASSERT_TRUE(blocking.stats.converged);
      expect_stats_bitwise(blocking.stats, overlapped.stats);
      expect_fields_bitwise(blocking.x, overlapped.x);
      for (int r = 0; r < nranks; ++r)
        EXPECT_EQ(blocking.iters[r], overlapped.iters[r]);
    }
  }
}

TEST(OverlapSolvers, ChronGearCheckFrequencyOne) {
  // check_frequency == 1 exercises the pre-loop norm posting in the
  // overlapped ChronGear (the first check's reduction has no previous
  // iteration to hide behind).
  auto p = make_problem(18, 14, 6, 2);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.check_frequency = 1;
  opt.record_residuals = true;
  auto blocking = run_solver(p, 2, opt, "cg", false);
  opt.overlap = true;
  auto overlapped = run_solver(p, 2, opt, "cg", false);
  ASSERT_TRUE(blocking.stats.converged);
  expect_stats_bitwise(blocking.stats, overlapped.stats);
  expect_fields_bitwise(blocking.x, overlapped.x);
}

TEST(OverlapSolvers, NoRedundantHaloExchanges) {
  // The split-phase engine must change WHEN halo updates happen, never
  // HOW MANY: one per operator sweep in both modes, for both solvers.
  auto p = make_problem(24, 16, 6, 1);
  const auto bounds = lanczos_bounds_serial(p, false);
  for (const std::string kind : {"cg", "pcsi"}) {
    ms::SolverOptions opt;
    opt.rel_tolerance = 1e-10;
    auto blocking = run_solver(p, 1, opt, kind, false, bounds);
    opt.overlap = true;
    auto overlapped = run_solver(p, 1, opt, kind, false, bounds);
    ASSERT_TRUE(blocking.stats.converged) << kind;
    EXPECT_EQ(blocking.stats.costs.halo_exchanges,
              overlapped.stats.costs.halo_exchanges)
        << kind;
  }
}

// ---------------------------------------------------------------------
// Halo freshness attestation
// ---------------------------------------------------------------------

TEST(HaloFreshness, FreshInputSkipsExactlyOneExchange) {
  auto p = make_problem(24, 16, 6, 1);
  const auto x0_global = random_global(24, 16, 55);
  for (bool overlap : {false, true}) {
    ms::SolverOptions opt;
    opt.rel_tolerance = 1e-10;
    opt.overlap = overlap;
    opt.record_residuals = true;
    ms::BatchedChronGearSolver solver(opt);

    auto solve_with = [&](mc::HaloFreshness fresh, bool pre_exchange) {
      mc::SerialComm comm;
      mc::HaloExchanger halo(*p.decomp);
      ms::DistOperator a(*p.stencil, *p.decomp, 0);
      ms::DiagonalPreconditioner m(a);
      mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
      b.load_global(p.b_global);
      x.load_global(x0_global);
      if (pre_exchange) halo.exchange(comm, x);
      const auto snapshot = comm.costs().counters();
      auto stats = ms::solve_one(solver, comm, halo, a, m, b, x, fresh);
      mu::Field out(24, 16, 0.0);
      x.store_global(out);
      return std::make_tuple(std::move(out), stats,
                             comm.costs().since(snapshot).halo_exchanges);
    };

    // Stale path exchanges x itself; fresh path trusts the caller's
    // pre-exchange. Same values either way -> bitwise-identical solve,
    // exactly one halo exchange fewer inside it.
    auto [x_stale, s_stale, h_stale] =
        solve_with(mc::HaloFreshness::kStale, true);
    auto [x_fresh, s_fresh, h_fresh] =
        solve_with(mc::HaloFreshness::kFresh, true);
    ASSERT_TRUE(s_stale.converged);
    expect_stats_bitwise(s_stale, s_fresh);
    expect_fields_bitwise(x_stale, x_fresh);
    EXPECT_EQ(h_stale, h_fresh + 1);
  }
}

// ---------------------------------------------------------------------
// Posted/exposed accounting
// ---------------------------------------------------------------------

TEST(OverlapAccounting, DerivedQuantities) {
  mc::CostCounters c;
  c.posted_comm_seconds = 2.0;
  c.exposed_comm_seconds = 0.5;
  c.requests = 7;
  const auto a = mp::overlap_accounting(c);
  EXPECT_EQ(a.posted_seconds, 2.0);
  EXPECT_EQ(a.exposed_seconds, 0.5);
  EXPECT_EQ(a.requests, 7u);
  EXPECT_EQ(a.hidden_seconds(), 1.5);
  EXPECT_EQ(a.hidden_fraction(), 0.75);

  const auto zero = mp::overlap_accounting(mc::CostCounters{});
  EXPECT_EQ(zero.hidden_fraction(), 0.0);
}

TEST(OverlapAccounting, SolveRecordsPostedAndExposed) {
  const int nranks = 4;
  auto p = make_problem(24, 16, 6, nranks);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.overlap = true;
  auto run = run_solver(p, nranks, opt, "cg", false);
  ASSERT_TRUE(run.stats.converged);
  const auto a = mp::overlap_accounting(run.stats.costs);
  EXPECT_GT(a.requests, 0u);
  EXPECT_GT(a.posted_seconds, 0.0);
  EXPECT_GE(a.posted_seconds, a.exposed_seconds);
  EXPECT_GE(a.exposed_seconds, 0.0);
}
