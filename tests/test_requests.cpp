// Nonblocking communication tests: Request semantics, tag epochs that
// keep consecutive halo exchanges apart (including epoch wrap-around),
// the MINIPOP_BOUNDS_CHECK tag-reuse audit, and halo freshness
// attestation (a fresh input skips exactly one exchange and changes no
// bit).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
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

// ---------------------------------------------------------------------
// Tag epochs of consecutive halo exchanges
// ---------------------------------------------------------------------

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
    // 3x the epoch window: each exchange draws a fresh epoch and the
    // counter wraps multiple times.
    for (int k = 0; k < 3 * mc::Communicator::kTagEpochWindow; ++k)
      halo.exchange(comm, f);
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
// Halo freshness attestation
// ---------------------------------------------------------------------

TEST(HaloFreshness, FreshInputSkipsExactlyOneExchange) {
  auto p = make_problem(24, 16, 6, 1);
  const auto x0_global = random_global(24, 16, 55);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
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
