// Communication-avoiding stencil engine (DESIGN.md §13): depth-k ghost
// zones, grouped deep exchanges, multi-sweep P-CSI.
//
// The load-bearing assertion is BITWISE identity: a depth-k solve must
// produce, member for member and iteration for iteration, exactly the
// bits of k-times-as-many depth-1 exchanges — across serial and 4-rank
// teams, scalar and batched (B=4), and every supported depth. Around it: counter audits (halo rounds and messages
// ~k× down, redundant ghost flops accounted), grouped-exchange
// equivalence, deep-rim exchange truth vs the global pattern, the
// narrow-block width clamp, Hilbert determinism, and the depth
// autotuner's model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/dist_field.hpp"
#include "src/comm/halo.hpp"
#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/perf/cost_equations.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace mp = minipop::perf;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

/// Bowl bathymetry with an island; block grid fine enough that depth-4
/// rims still fit every active block (max_halo_width() >= 4).
struct CaProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  std::unique_ptr<mc::HaloExchanger> halo;

  explicit CaProblem(int nx = 24, int ny = 20, bool periodic_x = false,
                     int nranks = 4, int block_nx = 12, int block_ny = 10) {
    mg::GridSpec spec;
    spec.kind = mg::GridKind::kUniform;
    spec.nx = nx;
    spec.ny = ny;
    spec.periodic_x = periodic_x;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<mg::CurvilinearGrid>(spec);
    depth = mg::bowl_bathymetry(*grid, 4000.0);
    depth(12, 9) = 0.0;  // island
    depth(13, 9) = 0.0;
    stencil = std::make_unique<mg::NinePointStencil>(*grid, depth, 1e-6);
    decomp = std::make_unique<mg::Decomposition>(nx, ny, periodic_x,
                                                 stencil->mask(), block_nx,
                                                 block_ny, nranks);
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

struct SolveOutcome {
  mu::Field x;
  int iterations = 0;
  double relative_residual = 0.0;
  std::vector<std::pair<int, double>> history;
  mc::CostCounters costs;  ///< rank 0's per-solve deltas
};

/// One single solve at the given depth, on `nranks` ranks; returns the
/// gathered solution and rank-0 stats.
SolveOutcome run_scalar(const CaProblem& p, int nranks,
                        ms::PreconditionerKind precond, int halo_depth,
                        double rel_tol) {
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = precond;
  cfg.options.rel_tolerance = rel_tol;
  cfg.options.record_residuals = true;
  cfg.options.halo_depth = halo_depth;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;

  const mu::Field rhs = p.random_rhs(4242);
  SolveOutcome out;
  out.x = mu::Field(p.grid->nx(), p.grid->ny(), 0.0);

  auto body = [&](mc::Communicator& comm) {
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                                *p.decomp, cfg);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(rhs);
    const ms::SolveStats stats = solver.solve(comm, b, x);
    ASSERT_TRUE(stats.converged);
    x.store_global(out.x);
    if (comm.rank() == 0) {
      out.iterations = stats.iterations;
      out.relative_residual = stats.relative_residual;
      out.history = stats.residual_history;
      out.costs = stats.costs;
    }
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    team.run(body);
  }
  return out;
}

void expect_same_bits(const mu::Field& a, const mu::Field& b,
                      const mu::MaskArray& mask) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      if (mask(i, j)) {
        ASSERT_EQ(a(i, j), b(i, j)) << "cell (" << i << "," << j << ")";
      }
}

struct IdentityCase {
  const char* label;
  int nranks;
  ms::PreconditionerKind precond;
  int depth;
  double rel_tol;
};

class CommAvoidIdentityTest : public ::testing::TestWithParam<IdentityCase> {
};

TEST_P(CommAvoidIdentityTest, DepthKSolveIsBitwiseDepth1) {
  const IdentityCase c = GetParam();
  CaProblem p(24, 20, false, c.nranks);
  ASSERT_GE(p.decomp->max_halo_width(), 4);

  const SolveOutcome base =
      run_scalar(p, c.nranks, c.precond, 1, c.rel_tol);
  const SolveOutcome ca =
      run_scalar(p, c.nranks, c.precond, c.depth, c.rel_tol);

  EXPECT_EQ(ca.iterations, base.iterations);
  EXPECT_EQ(ca.relative_residual, base.relative_residual);
  // record_residuals is on: empty histories would compare vacuously.
  ASSERT_FALSE(base.history.empty());
  ASSERT_EQ(ca.history.size(), base.history.size());
  for (std::size_t i = 0; i < base.history.size(); ++i) {
    EXPECT_EQ(ca.history[i].first, base.history[i].first) << "check " << i;
    EXPECT_EQ(ca.history[i].second, base.history[i].second) << "check " << i;
  }
  expect_same_bits(ca.x, base.x, p.stencil->mask());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CommAvoidIdentityTest,
    ::testing::Values(
        IdentityCase{"serial_fp64_d2", 1, ms::PreconditionerKind::kDiagonal,
                     2, 1e-10},
        IdentityCase{"serial_fp64_d4", 1, ms::PreconditionerKind::kDiagonal,
                     4, 1e-10},
        IdentityCase{"ranks4_fp64_d2", 4, ms::PreconditionerKind::kDiagonal,
                     2, 1e-10},
        IdentityCase{"ranks4_fp64_d3", 4, ms::PreconditionerKind::kDiagonal,
                     3, 1e-10},
        IdentityCase{"ranks4_fp64_d4", 4, ms::PreconditionerKind::kDiagonal,
                     4, 1e-10},
        IdentityCase{"ranks4_identity_d3", 4,
                     ms::PreconditionerKind::kIdentity, 3, 1e-8}),
    [](const auto& info) { return std::string(info.param.label); });

// --- batched bitwise identity --------------------------------------------

struct BatchOutcome {
  std::vector<mu::Field> xs;
  std::vector<int> iters;
  std::vector<double> rel;
  mc::CostCounters costs;
};

BatchOutcome run_batched(const CaProblem& p, int nranks, int nb,
                         int halo_depth, double rel_tol) {
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = rel_tol;
  cfg.options.halo_depth = halo_depth;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;

  std::vector<mu::Field> rhs;
  for (int m = 0; m < nb; ++m) rhs.push_back(p.random_rhs(9000 + m));

  BatchOutcome out;
  out.xs.assign(nb, mu::Field(p.grid->nx(), p.grid->ny(), 0.0));
  out.iters.assign(nb, 0);
  out.rel.assign(nb, 0.0);

  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                                *p.decomp, cfg);
    std::vector<mc::DistField> bb, xb;
    std::vector<const mc::DistField*> bs;
    std::vector<mc::DistField*> xs;
    for (int m = 0; m < nb; ++m) {
      bb.emplace_back(*p.decomp, r);
      xb.emplace_back(*p.decomp, r);
      bb.back().load_global(rhs[m]);
    }
    for (int m = 0; m < nb; ++m) {
      bs.push_back(&bb[m]);
      xs.push_back(&xb[m]);
    }
    const ms::BatchSolveStats stats = solver.solve_batch(comm, bs, xs);
    for (int m = 0; m < nb; ++m) {
      ASSERT_TRUE(stats.members[m].converged) << "member " << m;
      xb[m].store_global(out.xs[m]);
      if (r == 0) {
        out.iters[m] = stats.members[m].iterations;
        out.rel[m] = stats.members[m].relative_residual;
      }
    }
    if (r == 0) out.costs = stats.costs;
  });
  return out;
}

TEST(CommAvoidBatched, DepthKBatchIsBitwiseDepth1Fp64) {
  CaProblem p;
  for (int depth : {2, 4}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    const BatchOutcome base = run_batched(p, 4, 4, 1, 1e-10);
    const BatchOutcome ca = run_batched(p, 4, 4, depth, 1e-10);
    for (int m = 0; m < 4; ++m) {
      SCOPED_TRACE("member " + std::to_string(m));
      EXPECT_EQ(ca.iters[m], base.iters[m]);
      EXPECT_EQ(ca.rel[m], base.rel[m]);
      expect_same_bits(ca.xs[m], base.xs[m], p.stencil->mask());
    }
  }
}

TEST(CommAvoidBatched, SingleMemberBatchMatchesScalar) {
  CaProblem p;
  const SolveOutcome scalar =
      run_scalar(p, 4, ms::PreconditionerKind::kDiagonal, 3, 1e-10);
  // B = 1 batch with the same RHS seed the scalar helper uses.
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = 1e-10;
  cfg.options.halo_depth = 3;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  const mu::Field rhs = p.random_rhs(4242);
  mu::Field xg(p.grid->nx(), p.grid->ny(), 0.0);
  int iters = 0;
  mc::ThreadTeam team(4);
  team.run([&](mc::Communicator& comm) {
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                                *p.decomp, cfg);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(rhs);
    const mc::DistField* bs[1] = {&b};
    mc::DistField* xs[1] = {&x};
    const auto stats = solver.solve_batch(comm, bs, xs);
    ASSERT_TRUE(stats.members[0].converged);
    x.store_global(xg);
    if (comm.rank() == 0) iters = stats.members[0].iterations;
  });
  EXPECT_EQ(iters, scalar.iterations);
  expect_same_bits(xg, scalar.x, p.stencil->mask());
}

// --- cost-counter audit ---------------------------------------------------

/// Fixed-iteration solves (tolerance unreachable is NOT used — instead a
/// tolerance small enough that the run exhausts well over 100 iterations
/// before converging would be flaky; we pin the schedule by comparing
/// converged runs, which by the identity tests take the SAME iteration
/// count at every depth).
TEST(CommAvoidCosts, HaloRoundsAndMessagesDropByAboutK) {
  CaProblem p;
  const SolveOutcome d1 = run_scalar(p, 4, ms::PreconditionerKind::kDiagonal,
                                     1, 1e-10);
  const SolveOutcome d2 = run_scalar(p, 4, ms::PreconditionerKind::kDiagonal,
                                     2, 1e-10);
  const SolveOutcome d4 = run_scalar(p, 4, ms::PreconditionerKind::kDiagonal,
                                     4, 1e-10);
  ASSERT_EQ(d2.iterations, d1.iterations);
  ASSERT_EQ(d4.iterations, d1.iterations);
  ASSERT_GE(d1.iterations, 40) << "problem too easy to audit rounds";

  // Depth 1 never pays redundant ghost flops; depth k > 1 always does,
  // and the counter rides CostCounters::since() into SolveStats.
  EXPECT_EQ(d1.costs.redundant_flops, 0u);
  EXPECT_GT(d2.costs.redundant_flops, 0u);
  EXPECT_GT(d4.costs.redundant_flops, d2.costs.redundant_flops);
  // Redundant flops are a subset of flops: totals grow with depth.
  EXPECT_GT(d2.costs.flops, d1.costs.flops);
  EXPECT_GE(d2.costs.flops - d1.costs.flops, d2.costs.redundant_flops / 2);

  const auto ratio = [](std::uint64_t base, std::uint64_t ca) {
    return static_cast<double>(base) / static_cast<double>(ca);
  };
  // Exchange rounds: ~2x fewer at depth 2, more at depth 4 (the group
  // schedule aligns with checks, so the asymptote is min(k, check_freq)).
  EXPECT_GE(ratio(d1.costs.halo_exchanges, d2.costs.halo_exchanges), 1.8);
  EXPECT_GE(ratio(d1.costs.halo_exchanges, d4.costs.halo_exchanges),
            ratio(d1.costs.halo_exchanges, d2.costs.halo_exchanges));
  // Messages track rounds (one message per block-neighbor per round).
  EXPECT_GE(ratio(d1.costs.p2p_messages, d2.costs.p2p_messages), 1.8);
}

// --- grouped exchange equivalence -----------------------------------------

TEST(ExchangeGroup, MatchesSingleExchangesBitwiseWithOneThirdMessages) {
  const int nx = 18, ny = 12, hw = 3;
  mu::MaskArray mask(nx, ny, 1);
  mg::Decomposition d(nx, ny, true, mask, 6, 6, 4);
  mc::HaloExchanger hx(d);

  mu::Field g1(nx, ny), g2(nx, ny), g3(nx, ny);
  mu::Xoshiro256 rng(77);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      g1(i, j) = rng.uniform(-1, 1);
      g2(i, j) = rng.uniform(-1, 1);
      g3(i, j) = rng.uniform(-1, 1);
    }

  std::vector<mc::CostCounters> single_costs(4), group_costs(4);
  mc::ThreadTeam team(4);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    mc::DistField a1(d, r, hw), a2(d, r, hw), a3(d, r, hw);
    mc::DistField b1(d, r, hw), b2(d, r, hw), b3(d, r, hw);
    a1.load_global(g1); b1.load_global(g1);
    a2.load_global(g2); b2.load_global(g2);
    a3.load_global(g3); b3.load_global(g3);

    auto snap = comm.costs().counters();
    hx.exchange(comm, a1);
    hx.exchange(comm, a2);
    hx.exchange(comm, a3);
    single_costs[r] = comm.costs().since(snap);

    snap = comm.costs().counters();
    mc::DistFieldBatch* const group[3] = {&b1, &b2, &b3};
    hx.exchange_group(comm, group);
    group_costs[r] = comm.costs().since(snap);

    // Every plane, halos included, bitwise equal to its own exchange.
    const mc::DistField* as[3] = {&a1, &a2, &a3};
    const mc::DistField* bs[3] = {&b1, &b2, &b3};
    for (int f = 0; f < 3; ++f)
      for (int lb = 0; lb < a1.num_local_blocks(); ++lb) {
        const auto& info = a1.info(lb);
        for (int j = -hw; j < info.ny + hw; ++j)
          for (int i = -hw; i < info.nx + hw; ++i)
            ASSERT_EQ(as[f]->at(lb, i, j), bs[f]->at(lb, i, j))
                << "field " << f << " block " << lb << " cell (" << i
                << "," << j << ")";
      }
  });

  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    // One round and one message per (block, neighbor) for the whole
    // group vs three of each for the separate exchanges; same bytes.
    EXPECT_EQ(3 * group_costs[r].p2p_messages, single_costs[r].p2p_messages);
    EXPECT_EQ(group_costs[r].halo_exchanges, 1u);
    EXPECT_EQ(single_costs[r].halo_exchanges, 3u);
    EXPECT_EQ(group_costs[r].halo_member_updates,
              single_costs[r].halo_member_updates);
  }
}

// --- deep-rim exchange truth ----------------------------------------------

double pattern(int i, int j) { return 1 + i + 1000.0 * j; }

void check_deep_halo(int nx, int ny, bool periodic, int nranks, int hw) {
  mu::MaskArray mask(nx, ny, 1);
  mg::Decomposition d(nx, ny, periodic, mask, 6, 6, nranks);
  ASSERT_GE(d.max_halo_width(), hw);
  mu::Field global(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) global(i, j) = pattern(i, j);

  mc::HaloExchanger hx(d);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    mc::DistField f(d, comm.rank(), hw);
    f.load_global(global);
    hx.exchange(comm, f);
    for (int lb = 0; lb < f.num_local_blocks(); ++lb) {
      const auto& b = f.info(lb);
      for (int j = -hw; j < b.ny + hw; ++j)
        for (int i = -hw; i < b.nx + hw; ++i) {
          if (i >= 0 && i < b.nx && j >= 0 && j < b.ny) continue;
          int gi = b.i0 + i;
          const int gj = b.j0 + j;
          double expected = 0.0;
          if (gj >= 0 && gj < ny) {
            if (periodic) gi = (gi % nx + nx) % nx;
            if (gi >= 0 && gi < nx) expected = pattern(gi, gj);
          }
          ASSERT_EQ(f.at(lb, i, j), expected)
              << "block " << lb << " halo cell (" << i << "," << j << ")";
        }
    }
  });
}

TEST(DeepHalo, Width3ClosedMultiRank) { check_deep_halo(18, 12, false, 4, 3); }
TEST(DeepHalo, Width3PeriodicMultiRank) { check_deep_halo(18, 12, true, 4, 3); }
TEST(DeepHalo, Width4PeriodicMultiRank) { check_deep_halo(24, 18, true, 4, 4); }

// --- narrow-block validation (satellite: clamp/reject wide rims) ----------

TEST(HaloDepthValidation, NarrowBlockBoundsTheRim) {
  // nx = 15 with 6-wide blocks leaves a 3-wide remainder column: the
  // widest exchangeable rim is 3.
  mu::MaskArray mask(15, 12, 1);
  mg::Decomposition d(15, 12, false, mask, 6, 6, 1);
  EXPECT_EQ(d.max_halo_width(), 3);
  EXPECT_NO_THROW(d.validate_halo(3));
  EXPECT_THROW(d.validate_halo(4), mu::Error);
  EXPECT_NO_THROW(mc::DistField(d, 0, 3));
  EXPECT_THROW(mc::DistField(d, 0, 4), mu::Error);
  EXPECT_THROW(mc::DistFieldBatch(d, 0, 2, 4), mu::Error);
}

TEST(HaloDepthValidation, FactoryClampsDepthToNarrowestBlock) {
  // Same narrow-remainder decomposition through the facade: a requested
  // depth of 4 resolves to the widest supported rim, 3.
  CaProblem p(15, 12, false, 1, 6, 6);
  ASSERT_EQ(p.decomp->max_halo_width(), 3);
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.halo_depth = 4;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  mc::SerialComm comm;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
  EXPECT_EQ(solver.config().options.halo_depth, 3);
}

TEST(HaloDepthValidation, BlockEvpFallsBackToDepth1) {
  CaProblem p(24, 20, false, 1);
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kBlockEvp;
  cfg.options.halo_depth = 3;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  mc::SerialComm comm;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
  EXPECT_EQ(solver.config().options.halo_depth, 1);
}

TEST(HaloDepthValidation, AutoResolvesToConcreteDepth) {
  CaProblem p(24, 20, false, 1);
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kPcsi;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.halo_depth = ms::kHaloDepthAuto;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  mc::SerialComm comm;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
  const int hd = solver.config().options.halo_depth;
  EXPECT_GE(hd, 1);
  EXPECT_LE(hd, ms::kMaxHaloDepth);
}

/// Lanczos bounds of the diagonally preconditioned operator on one rank.
ms::EigenBounds serial_bounds(const CaProblem& p) {
  mc::SerialComm comm;
  const ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  return ms::estimate_eigenvalue_bounds(comm, *p.halo, a, m, lopt).bounds;
}

// A depth-k P-CSI solve sweeps the interior grown by up to k - 1 cells,
// so it needs an operator whose planes carry that rim: too small a rim
// is a loud error, never a silent fall back to depth 1.
TEST(HaloDepthValidation, PcsiRequiresOperatorRimOfDepthMinusOne) {
  CaProblem p(24, 20, false, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.halo_depth = 3;
  ms::BatchedPcsiSolver pcsi(serial_bounds(p), opt);
  mc::SerialComm comm;
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.random_rhs(4242));
  for (int rim : {0, 1}) {
    SCOPED_TRACE("rim " + std::to_string(rim));
    const ms::DistOperator a(*p.stencil, *p.decomp, 0, rim);
    ms::DiagonalPreconditioner m(a);
    try {
      ms::solve_one(pcsi, comm, *p.halo, a, m, b, x);
      ADD_FAILURE() << "depth-3 solve ran on a rim-" << rim << " operator";
    } catch (const mu::Error& e) {
      EXPECT_NE(std::string(e.what()).find("needs an operator built with "
                                           "rim 2"),
                std::string::npos)
          << e.what();
    }
  }
  const ms::DistOperator a(*p.stencil, *p.decomp, 0, 2);
  ms::DiagonalPreconditioner m(a);
  EXPECT_NO_THROW(ms::solve_one(pcsi, comm, *p.halo, a, m, b, x));
  // The rim must leave a halo cell beyond it for the widest sweep.
  EXPECT_THROW(ms::DistOperator(*p.stencil, *p.decomp, 0,
                                p.decomp->max_halo_width()),
               mu::Error);
}

// Padding the planes changes only where they live: a depth-1 solve on a
// rim-2 operator reproduces the rim-0 solve and its counters exactly.
TEST(CommAvoidCosts, PaddedOperatorLeavesDepth1SolveUnchanged) {
  CaProblem p(24, 20, false, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  ms::BatchedPcsiSolver pcsi(serial_bounds(p), opt);
  mc::SerialComm comm;
  mc::DistField b(*p.decomp, 0);
  b.load_global(p.random_rhs(4242));
  std::vector<ms::SolveStats> stats;
  std::vector<mu::Field> xs;
  for (int rim : {0, 2}) {
    const ms::DistOperator a(*p.stencil, *p.decomp, 0, rim);
    ms::DiagonalPreconditioner m(a);
    mc::DistField x(*p.decomp, 0);
    stats.push_back(ms::solve_one(pcsi, comm, *p.halo, a, m, b, x));
    xs.emplace_back(p.grid->nx(), p.grid->ny(), 0.0);
    x.store_global(xs.back());
  }
  ASSERT_FALSE(stats[0].residual_history.empty());
  EXPECT_EQ(stats[1].iterations, stats[0].iterations);
  EXPECT_EQ(stats[1].relative_residual, stats[0].relative_residual);
  EXPECT_EQ(stats[1].residual_history, stats[0].residual_history);
  EXPECT_EQ(stats[1].costs.flops, stats[0].costs.flops);
  EXPECT_EQ(stats[1].costs.redundant_flops, 0u);
  EXPECT_EQ(stats[1].costs.halo_exchanges, stats[0].costs.halo_exchanges);
  EXPECT_EQ(stats[1].costs.active_points, stats[0].costs.active_points);
  EXPECT_EQ(stats[1].costs.swept_points, stats[0].costs.swept_points);
  expect_same_bits(xs[1], xs[0], p.stencil->mask());
}

// --- Hilbert / decomposition determinism ----------------------------------

TEST(DecompositionDeterminism, RepeatedConstructionIsIdentical) {
  CaProblem base;
  for (int nranks : {1, 2, 4}) {
    SCOPED_TRACE("nranks " + std::to_string(nranks));
    std::unique_ptr<mg::Decomposition> first;
    for (int run = 0; run < 3; ++run) {
      auto d = std::make_unique<mg::Decomposition>(
          24, 20, false, base.stencil->mask(), 12, 10, nranks);
      if (!first) {
        first = std::move(d);
        continue;
      }
      ASSERT_EQ(d->num_active_blocks(), first->num_active_blocks());
      for (int id = 0; id < d->num_active_blocks(); ++id) {
        const auto& a = d->block(id);
        const auto& b = first->block(id);
        EXPECT_EQ(a.owner, b.owner) << "block " << id << " run " << run;
        EXPECT_EQ(a.i0, b.i0);
        EXPECT_EQ(a.j0, b.j0);
        EXPECT_EQ(a.nx, b.nx);
        EXPECT_EQ(a.ny, b.ny);
      }
      for (int r = 0; r < nranks; ++r)
        EXPECT_EQ(d->blocks_of_rank(r), first->blocks_of_rank(r))
            << "rank " << r << " run " << run;
    }
  }
}

// --- depth autotuner model -------------------------------------------------

TEST(DepthAutotuner, DepthOneIsExactlyTheBaselineModel) {
  const mp::MachineProfile m = mp::yellowstone_profile();
  for (int p : {1024, 4096, 16384}) {
    const auto base =
        mp::iteration_costs(m, mp::Config::kPcsiDiag, 3600L * 2400, p, 10);
    const auto ca = mp::comm_avoid_iteration_costs(
        m, mp::Config::kPcsiDiag, 3600L * 2400, p, 10, 1);
    EXPECT_EQ(ca.computation, base.computation) << "p=" << p;
    EXPECT_EQ(ca.halo, base.halo) << "p=" << p;
    EXPECT_EQ(ca.reduction, base.reduction) << "p=" << p;
  }
}

TEST(DepthAutotuner, LatencyBoundPicksDeepRimsComputeBoundPicksOne) {
  // Latency-dominated regime: tiny subdomains, expensive messages.
  mp::MachineProfile lat = mp::yellowstone_profile();
  lat.alpha_p2p = 1e-3;  // pathological wire latency
  EXPECT_GT(mp::choose_halo_depth(lat, mp::Config::kPcsiDiag, 3600L * 2400,
                                  16384, 10),
            1);
  // Compute-dominated regime: few ranks, huge subdomains — redundant
  // perimeter flops swamp any latency saving.
  mp::MachineProfile slow = mp::yellowstone_profile();
  slow.theta = 1e-6;  // pathologically slow cores
  EXPECT_EQ(mp::choose_halo_depth(slow, mp::Config::kPcsiDiag, 3600L * 2400,
                                  4, 10),
            1);
  // Non-P-CSI configs have no comm-avoiding schedule.
  EXPECT_EQ(mp::choose_halo_depth(lat, mp::Config::kCgDiag, 3600L * 2400,
                                  16384, 10),
            1);
}

TEST(DepthAutotuner, SingleRankPicksDepthOne) {
  // One rank sends nothing: its exchanges are local copies and its
  // reductions have no tree, so deeper rims save no latency and add
  // redundant flops. ocean_simulation's default grid (38x46, 77% ocean)
  // once resolved auto to depth 2 on one rank, which ran ~1.4x slower
  // than depth 1 for the same iterations.
  const mp::MachineProfile m = mp::yellowstone_profile();
  for (const long points : {38L * 46, 64L * 77, 3600L * 2400})
    for (const double ocean : {0.767, 1.0})
      EXPECT_EQ(mp::choose_halo_depth(m, mp::Config::kPcsiDiag, points, 1,
                                      10, 4, ocean),
                1)
          << points << " points, ocean fraction " << ocean;
  const double n = 38.0 * 46.0;
  const auto c =
      mp::iteration_costs(m, mp::Config::kPcsiDiag, 38L * 46, 1, 10);
  EXPECT_DOUBLE_EQ(c.halo, 64.0 * std::sqrt(n) * m.beta);
  EXPECT_DOUBLE_EQ(c.reduction, 0.1 * mp::kMaskOpsPerPoint * n * m.theta);
}

TEST(DepthAutotuner, DepthRespectsMaxBound) {
  mp::MachineProfile lat = mp::yellowstone_profile();
  lat.alpha_p2p = 1.0;  // latency so dominant the argmin saturates
  for (int max_depth : {1, 2, 3, 4}) {
    const int k = mp::choose_halo_depth(lat, mp::Config::kPcsiDiag,
                                        3600L * 2400, 16384, 10, max_depth);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, max_depth);
  }
}

}  // namespace
