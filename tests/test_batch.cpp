// Batched multi-RHS engine: DistFieldBatch round trips, aggregated halo
// exchanges (bitwise vs scalar, message/byte audit), batched dots,
// bit-identity of B=4 batched P-CSI/ChronGear members against single
// (B=1) solves, per-member convergence masking, retirement compaction,
// cost aggregation, and the batched ensemble runner.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/stats/ensemble.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mst = minipop::stats;
namespace mu = minipop::util;

namespace {

/// Bowl bathymetry with an island and a coast-to-island wall pierced by
/// a one-cell strait (same masked topology as the stall-detection test
/// in test_resilience.cpp).
struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;   // serial
  std::unique_ptr<mg::Decomposition> decomp4;  // 4-rank split
  std::unique_ptr<mc::HaloExchanger> halo;
  std::unique_ptr<mc::HaloExchanger> halo4;

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
    decomp4 = std::make_unique<mg::Decomposition>(nx, ny, false,
                                                  stencil->mask(), 11, 9, 4);
    halo = std::make_unique<mc::HaloExchanger>(*decomp);
    halo4 = std::make_unique<mc::HaloExchanger>(*decomp4);
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

ms::SolverConfig batch_config(ms::SolverKind kind) {
  ms::SolverConfig cfg;
  cfg.solver = kind;
  cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = 1e-12;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  return cfg;
}

void expect_fields_equal(const mu::Field& a, const mu::Field& b,
                         const char* what) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      ASSERT_EQ(a(i, j), b(i, j))
          << what << " differs at (" << i << "," << j << ")";
}

}  // namespace

// ---------------------------------------------------------------------
// DistFieldBatch container
// ---------------------------------------------------------------------

TEST(BatchField, LoadStoreRoundtripIsBitExact) {
  Problem p;
  const int nb = 3;
  mc::DistFieldBatch batch(*p.decomp, 0, nb);

  std::vector<mc::DistField> planes;
  for (int m = 0; m < nb; ++m) {
    planes.emplace_back(*p.decomp, 0);
    planes.back().load_global(p.random_rhs(100 + m));
    // Distinct halo garbage per member: the roundtrip must carry the
    // FULL padded plane, not just the interior.
    for (int lb = 0; lb < planes.back().num_local_blocks(); ++lb)
      planes.back().data(lb)(0, 0) = 1000.0 + m;
    ASSERT_TRUE(batch.member_compatible(planes.back()));
    batch.load_member(m, planes.back());
  }
  for (int m = 0; m < nb; ++m) {
    mc::DistField out(*p.decomp, 0);
    batch.store_member(m, out);
    for (int lb = 0; lb < out.num_local_blocks(); ++lb) {
      const auto& got = out.data(lb);
      const auto& want = planes[m].data(lb);
      for (int j = 0; j < got.ny(); ++j)
        for (int i = 0; i < got.nx(); ++i)
          ASSERT_EQ(got(i, j), want(i, j)) << "member " << m;
    }
  }

  // Compaction-style migration between different batch widths.
  mc::DistFieldBatch narrow(*p.decomp, 0, 1);
  narrow.copy_member_from(0, batch, 2);
  mc::DistField out(*p.decomp, 0);
  narrow.store_member(0, out);
  for (int lb = 0; lb < out.num_local_blocks(); ++lb) {
    const auto& got = out.data(lb);
    const auto& want = planes[2].data(lb);
    for (int j = 0; j < got.ny(); ++j)
      for (int i = 0; i < got.nx(); ++i) ASSERT_EQ(got(i, j), want(i, j));
  }
}

// ---------------------------------------------------------------------
// Aggregated halo exchange
// ---------------------------------------------------------------------

// One batched exchange must deliver exactly the planes B scalar
// exchanges deliver, in ONE message per neighbor per direction (B×
// fewer messages, B× bigger payloads), and the CostTracker audit must
// show 1 halo round carrying B member updates.
TEST(BatchHalo, MatchesScalarBitwiseWithAggregatedMessages) {
  Problem p;
  const int nb = 3;
  const int nranks = 4;

  std::vector<mc::CostCounters> scalar_costs(nranks), batch_costs(nranks);
  std::vector<int> plane_mismatches(nranks, 0);
  std::vector<std::uint64_t> bytes_scalar(nranks), bytes_batch(nranks);

  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    std::vector<mc::DistField> planes;
    mc::DistFieldBatch batch(*p.decomp4, r, nb);
    for (int m = 0; m < nb; ++m) {
      planes.emplace_back(*p.decomp4, r);
      planes.back().load_global(p.random_rhs(200 + m));
      batch.load_member(m, planes.back());
    }
    bytes_scalar[r] = p.halo4->bytes_sent_per_exchange(planes[0]);
    bytes_batch[r] = p.halo4->bytes_sent_per_exchange(batch);

    // Scalar reference: one exchange per member.
    auto snap = comm.costs().counters();
    for (auto& f : planes) p.halo4->exchange(comm, f);
    scalar_costs[r] = comm.costs().since(snap);

    // Batched: one aggregated exchange for all members.
    snap = comm.costs().counters();
    p.halo4->exchange(comm, batch);
    batch_costs[r] = comm.costs().since(snap);

    for (int m = 0; m < nb; ++m) {
      mc::DistField out(*p.decomp4, r);
      batch.store_member(m, out);
      for (int lb = 0; lb < out.num_local_blocks(); ++lb) {
        const auto& got = out.data(lb);
        const auto& want = planes[m].data(lb);
        for (int j = 0; j < got.ny(); ++j)
          for (int i = 0; i < got.nx(); ++i)
            if (got(i, j) != want(i, j)) ++plane_mismatches[r];
      }
    }
  });

  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(plane_mismatches[r], 0) << "rank " << r;
    // Aggregation factor audit: nb scalar rounds of 1 member vs 1
    // batched round of nb members.
    EXPECT_EQ(scalar_costs[r].halo_exchanges, static_cast<unsigned>(nb));
    EXPECT_EQ(scalar_costs[r].halo_member_updates,
              static_cast<unsigned>(nb));
    EXPECT_EQ(batch_costs[r].halo_exchanges, 1u);
    EXPECT_EQ(batch_costs[r].halo_member_updates,
              static_cast<unsigned>(nb));
    // B× fewer messages, same total bytes.
    EXPECT_EQ(scalar_costs[r].p2p_messages,
              static_cast<std::uint64_t>(nb) * batch_costs[r].p2p_messages);
    EXPECT_EQ(scalar_costs[r].p2p_bytes, batch_costs[r].p2p_bytes);
    EXPECT_EQ(bytes_batch[r], static_cast<std::uint64_t>(nb) *
                                  bytes_scalar[r]);
  }
}

// ---------------------------------------------------------------------
// Batched reductions
// ---------------------------------------------------------------------

// dot_batch and dot3_batch must reproduce the scalar masked dots bit
// for bit per member (they share the accumulation-order contract).
TEST(BatchDots, MatchScalarDotsBitwise) {
  Problem p;
  mc::SerialComm comm;
  const int nb = 4;
  ms::DistOperator a(*p.stencil, *p.decomp, 0);

  std::vector<mc::DistField> ra, rb, rz;
  mc::DistFieldBatch ba(*p.decomp, 0, nb), bb(*p.decomp, 0, nb),
      bz(*p.decomp, 0, nb);
  for (int m = 0; m < nb; ++m) {
    ra.emplace_back(*p.decomp, 0);
    rb.emplace_back(*p.decomp, 0);
    rz.emplace_back(*p.decomp, 0);
    ra.back().load_global(p.random_rhs(300 + m));
    rb.back().load_global(p.random_rhs(400 + m));
    rz.back().load_global(p.random_rhs(500 + m));
    ba.load_member(m, ra.back());
    bb.load_member(m, rb.back());
    bz.load_member(m, rz.back());
  }

  std::vector<double> sums(nb);
  a.local_dot_batch(comm, ba, bb, sums.data());
  for (int m = 0; m < nb; ++m)
    EXPECT_EQ(sums[m], a.local_dot(comm, ra[m], rb[m])) << "member " << m;

  for (const bool with_norm : {false, true}) {
    std::vector<double> out(3 * nb, -1.0);
    a.local_dot3_batch(comm, ba, bb, bz, with_norm, out.data());
    for (int m = 0; m < nb; ++m) {
      double ref[3];
      a.local_dot3(comm, ra[m], rb[m], rz[m], with_norm, ref);
      EXPECT_EQ(out[m], ref[0]) << "rho, member " << m;
      EXPECT_EQ(out[nb + m], ref[1]) << "delta, member " << m;
      EXPECT_EQ(out[2 * nb + m], ref[2])
          << "norm(with_norm=" << with_norm << "), member " << m;
    }
  }
}

// ---------------------------------------------------------------------
// Bit-identity of the batched solvers
// ---------------------------------------------------------------------

class BatchedSolveIdentityTest
    : public ::testing::TestWithParam<std::tuple<ms::SolverKind, int>> {};

// B=1 batched solves and every member of a B=4 batched solve must be
// bit-identical to BarotropicSolver::solve: same iteration counts, same
// relative residuals, same solution bits — serial and on 4 ThreadComm
// ranks. (tests/test_golden_pins.cpp pins solve() itself against the
// retired scalar solvers.) The batch also has to aggregate: far fewer
// halo rounds and reductions than the 4 sequential solves.
TEST_P(BatchedSolveIdentityTest, MembersMatchScalarSolveBitwise) {
  const auto [kind, nranks] = GetParam();
  Problem p;
  const int nb = 4;
  const auto& decomp = (nranks == 1) ? *p.decomp : *p.decomp4;
  const auto& halo = (nranks == 1) ? *p.halo : *p.halo4;

  std::vector<mu::Field> rhs;
  for (int m = 0; m < nb; ++m) rhs.push_back(p.random_rhs(600 + m));

  std::vector<mu::Field> x_scalar(nb), x_b1(nb), x_b4(nb);
  for (int m = 0; m < nb; ++m) {
    x_scalar[m] = mu::Field(p.grid->nx(), p.grid->ny(), 0.0);
    x_b1[m] = mu::Field(p.grid->nx(), p.grid->ny(), 0.0);
    x_b4[m] = mu::Field(p.grid->nx(), p.grid->ny(), 0.0);
  }
  std::vector<ms::SolveStats> scalar_stats(nb);
  ms::BatchSolveStats b1_stats[4];  // per member, from B=1 solves
  ms::BatchSolveStats b4_stats;
  std::vector<mc::CostCounters> scalar_costs(nranks), batch_costs(nranks);

  auto body = [&](mc::Communicator& comm) {
    const int r = comm.rank();
    ms::BarotropicSolver solver(comm, halo, *p.grid, p.depth, *p.stencil,
                                decomp, batch_config(kind));
    ASSERT_TRUE(solver.has_batched_path());

    // Scalar references.
    auto snap = comm.costs().counters();
    for (int m = 0; m < nb; ++m) {
      mc::DistField b(decomp, r), x(decomp, r);
      b.load_global(rhs[m]);
      const auto stats = solver.solve(comm, b, x);
      x.store_global(x_scalar[m]);  // disjoint interiors; no race
      if (r == 0) scalar_stats[m] = stats;
    }
    scalar_costs[r] = comm.costs().since(snap);

    // B=1 batched solves.
    for (int m = 0; m < nb; ++m) {
      mc::DistField b(decomp, r), x(decomp, r);
      b.load_global(rhs[m]);
      const mc::DistField* bs[1] = {&b};
      mc::DistField* xs[1] = {&x};
      const auto stats = solver.solve_batch(comm, bs, xs);
      x.store_global(x_b1[m]);
      if (r == 0) b1_stats[m] = stats;
    }

    // One B=4 batched solve.
    std::vector<mc::DistField> b4, x4;
    std::vector<const mc::DistField*> bs;
    std::vector<mc::DistField*> xs;
    for (int m = 0; m < nb; ++m) {
      b4.emplace_back(decomp, r);
      x4.emplace_back(decomp, r);
      b4.back().load_global(rhs[m]);
    }
    for (int m = 0; m < nb; ++m) {
      bs.push_back(&b4[m]);
      xs.push_back(&x4[m]);
    }
    snap = comm.costs().counters();
    const auto stats = solver.solve_batch(comm, bs, xs);
    batch_costs[r] = comm.costs().since(snap);
    for (int m = 0; m < nb; ++m) x4[m].store_global(x_b4[m]);
    if (r == 0) b4_stats = stats;
  };

  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    team.run(body);
  }

  ASSERT_EQ(static_cast<int>(b4_stats.members.size()), nb);
  for (int m = 0; m < nb; ++m) {
    ASSERT_TRUE(scalar_stats[m].converged) << "member " << m;
    // B=1 member vs scalar.
    EXPECT_EQ(b1_stats[m].members[0].iterations,
              scalar_stats[m].iterations);
    EXPECT_TRUE(b1_stats[m].members[0].converged);
    EXPECT_EQ(b1_stats[m].members[0].relative_residual,
              scalar_stats[m].relative_residual);
    expect_fields_equal(x_b1[m], x_scalar[m], "B=1 batched solution");
    // B=4 member vs scalar.
    EXPECT_EQ(b4_stats.members[m].iterations, scalar_stats[m].iterations)
        << "member " << m;
    EXPECT_TRUE(b4_stats.members[m].converged) << "member " << m;
    EXPECT_EQ(b4_stats.members[m].relative_residual,
              scalar_stats[m].relative_residual)
        << "member " << m;
    expect_fields_equal(x_b4[m], x_scalar[m], "B=4 batched solution");
  }
  // Aggregation: the batch runs max(iterations) lockstep sweeps but
  // shares every halo round and reduction, so it must use well under
  // half of the 4 sequential solves' counts (ideally ~1/4).
  for (int r = 0; r < nranks; ++r) {
    EXPECT_LT(2 * batch_costs[r].halo_exchanges,
              scalar_costs[r].halo_exchanges)
        << "rank " << r;
    EXPECT_LT(2 * batch_costs[r].allreduces, scalar_costs[r].allreduces)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndRanks, BatchedSolveIdentityTest,
    ::testing::Combine(::testing::Values(ms::SolverKind::kPcsi,
                                         ms::SolverKind::kChronGear),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return ms::to_string(std::get<0>(info.param)) + "_ranks" +
             std::to_string(std::get<1>(info.param));
    });

// A zero right-hand side resolves a member immediately (x = 0,
// converged, 0 iterations) without disturbing its batch mates.
TEST(BatchedSolve, ZeroRhsMemberResolvesImmediately) {
  Problem p;
  mc::SerialComm comm;
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp,
                              batch_config(ms::SolverKind::kChronGear));

  mc::DistField b0(*p.decomp, 0), x0(*p.decomp, 0);
  mc::DistField b1(*p.decomp, 0), x1(*p.decomp, 0);
  b1.load_global(p.random_rhs(700));
  // Start member 0's x nonzero to prove the zero-RHS path resets it.
  x0.fill(3.5);

  mc::DistField b_ref(*p.decomp, 0), x_ref(*p.decomp, 0);
  b_ref.load_global(p.random_rhs(700));
  const auto ref = solver.solve(comm, b_ref, x_ref);

  const mc::DistField* bs[2] = {&b0, &b1};
  mc::DistField* xs[2] = {&x0, &x1};
  const auto stats = solver.solve_batch(comm, bs, xs);

  EXPECT_TRUE(stats.members[0].converged);
  EXPECT_EQ(stats.members[0].iterations, 0);
  for (int lb = 0; lb < x0.num_local_blocks(); ++lb) {
    const auto& info = x0.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        ASSERT_EQ(x0.at(lb, i, j), 0.0);
  }
  EXPECT_TRUE(stats.members[1].converged);
  EXPECT_EQ(stats.members[1].iterations, ref.iterations);
  EXPECT_EQ(stats.members[1].relative_residual, ref.relative_residual);
}

// ---------------------------------------------------------------------
// Per-member convergence masking
// ---------------------------------------------------------------------

// An easy member (warm-started at the solution) freezes at its first
// convergence check while a hard (cold) member keeps iterating; the
// frozen member's solution must not be perturbed by the extra lockstep
// iterations — it stays bit-identical to its own single solve — and the
// hard member still reaches tolerance.
TEST(BatchedSolve, EasyMemberFreezesUnperturbedWhileHardMemberIterates) {
  Problem p;
  mc::SerialComm comm;
  auto cfg = batch_config(ms::SolverKind::kPcsi);
  cfg.options.check_frequency = 1;  // freeze at the earliest opportunity
  ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);

  const mu::Field rhs_easy = p.random_rhs(800);
  const mu::Field rhs_hard = p.random_rhs(801);

  // Solve the easy system once to get a warm start, then re-solve from
  // it: the scalar reference for "already converged at entry".
  mc::DistField be(*p.decomp, 0), warm(*p.decomp, 0);
  be.load_global(rhs_easy);
  (void)solver.solve(comm, be, warm);
  mc::DistField x_easy_ref(*p.decomp, 0);
  ms::copy_interior(warm, x_easy_ref);
  p.halo->exchange(comm, x_easy_ref);
  const auto easy_ref = solver.solve(comm, be, x_easy_ref);

  mc::DistField bh(*p.decomp, 0), x_hard_ref(*p.decomp, 0);
  bh.load_global(rhs_hard);
  const auto hard_ref = solver.solve(comm, bh, x_hard_ref);

  // The batched twin: member 0 warm, member 1 cold.
  mc::DistField x_easy(*p.decomp, 0), x_hard(*p.decomp, 0);
  ms::copy_interior(warm, x_easy);
  p.halo->exchange(comm, x_easy);
  const mc::DistField* bs[2] = {&be, &bh};
  mc::DistField* xs[2] = {&x_easy, &x_hard};
  const auto stats = solver.solve_batch(comm, bs, xs);

  EXPECT_TRUE(stats.members[0].converged);
  EXPECT_TRUE(stats.members[1].converged);
  EXPECT_EQ(stats.members[0].iterations, easy_ref.iterations);
  EXPECT_EQ(stats.members[1].iterations, hard_ref.iterations);
  EXPECT_LT(stats.members[0].iterations, stats.members[1].iterations);
  EXPECT_LE(stats.members[1].relative_residual, 1e-12);

  // The frozen member's bits match its single solve exactly even though
  // the batch kept sweeping for the hard member.
  for (int lb = 0; lb < x_easy.num_local_blocks(); ++lb) {
    const auto& info = x_easy.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        ASSERT_EQ(x_easy.at(lb, i, j), x_easy_ref.at(lb, i, j));
        ASSERT_EQ(x_hard.at(lb, i, j), x_hard_ref.at(lb, i, j));
      }
  }
}

// ---------------------------------------------------------------------
// Retirement compaction
// ---------------------------------------------------------------------

// Retirement (lane compaction when enough members froze) is pure data
// movement: forced compaction (fraction 1.0) and disabled retirement
// (fraction 0.0) must produce identical bits, iteration counts and
// residuals; the forced run must actually compact.
TEST(BatchedSolve, RetirementCompactionIsBitNeutral) {
  Problem p;
  const int nb = 4;
  std::vector<mu::Field> rhs;
  for (int m = 0; m < nb; ++m) rhs.push_back(p.random_rhs(900 + m));

  auto run = [&](double fraction, ms::BatchSolveStats& stats_out) {
    mc::SerialComm comm;
    auto cfg = batch_config(ms::SolverKind::kChronGear);
    cfg.options.check_frequency = 1;
    cfg.options.batch_retire_fraction = fraction;
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth,
                                *p.stencil, *p.decomp, cfg);
    // Warm-start half the batch so members freeze at different checks.
    std::vector<mc::DistField> b, x;
    for (int m = 0; m < nb; ++m) {
      b.emplace_back(*p.decomp, 0);
      x.emplace_back(*p.decomp, 0);
      b.back().load_global(rhs[m]);
    }
    for (int m = 0; m < 2; ++m) {
      mc::DistField bw(*p.decomp, 0);
      bw.load_global(rhs[m]);
      (void)solver.solve(comm, bw, x[m]);
    }
    std::vector<const mc::DistField*> bs;
    std::vector<mc::DistField*> xs;
    for (int m = 0; m < nb; ++m) {
      bs.push_back(&b[m]);
      xs.push_back(&x[m]);
    }
    stats_out = solver.solve_batch(comm, bs, xs);
    std::vector<mu::Field> out(nb);
    for (int m = 0; m < nb; ++m) {
      out[m] = mu::Field(p.grid->nx(), p.grid->ny(), 0.0);
      x[m].store_global(out[m]);
    }
    return out;
  };

  ms::BatchSolveStats forced, disabled;
  const auto x_forced = run(1.0, forced);
  const auto x_disabled = run(0.0, disabled);

  EXPECT_GE(forced.retirements, 1);
  EXPECT_EQ(disabled.retirements, 0);
  for (int m = 0; m < nb; ++m) {
    EXPECT_EQ(forced.members[m].iterations, disabled.members[m].iterations)
        << "member " << m;
    EXPECT_EQ(forced.members[m].converged, disabled.members[m].converged);
    EXPECT_EQ(forced.members[m].relative_residual,
              disabled.members[m].relative_residual)
        << "member " << m;
    expect_fields_equal(x_forced[m], x_disabled[m], "retired solution");
  }
  // With retirement the tail iterations run on a narrower batch, so the
  // forced run must refresh fewer member planes in total.
  EXPECT_LT(forced.costs.halo_member_updates,
            disabled.costs.halo_member_updates);
  EXPECT_EQ(disabled.costs.halo_member_updates,
            static_cast<std::uint64_t>(nb) *
                disabled.costs.halo_exchanges);
}

// ---------------------------------------------------------------------
// Batched ensemble runner
// ---------------------------------------------------------------------

namespace {
mst::EnsembleConfig tiny_ensemble_config() {
  mst::EnsembleConfig cfg;
  cfg.model.grid = mg::pop_1deg_spec(0.06);  // 19 x 23
  cfg.model.nz = 2;
  cfg.model.block_size = 12;
  cfg.model.nranks = 1;
  cfg.months = 1;
  cfg.members = 3;
  return cfg;
}
}  // namespace

// Batched member groups must reproduce the sequential ensemble bit for
// bit: the batched fp64 solves are bit-exact per member and the
// resilience decorator they bypass is bitwise-neutral in fault-free
// runs.
TEST(EnsembleBatch, BatchedMembersMatchSequentialBitwise) {
  auto cfg = tiny_ensemble_config();
  const auto seq = mst::run_ensemble(cfg);
  cfg.batch = 2;  // groups of 2 + a remainder group of 1
  int calls = 0;
  const auto bat = mst::run_ensemble(
      cfg, [&](int done, int total) {
        ++calls;
        EXPECT_LE(done, total);
      });
  EXPECT_EQ(calls, cfg.members);
  ASSERT_EQ(bat.size(), seq.size());
  for (std::size_t m = 0; m < seq.size(); ++m) {
    ASSERT_EQ(bat[m].size(), seq[m].size());
    for (std::size_t t = 0; t < seq[m].size(); ++t) {
      const auto a = bat[m][t].flat();
      const auto b = seq[m][t].flat();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t q = 0; q < a.size(); ++q)
        ASSERT_EQ(a[q], b[q]) << "member " << m << " month " << t;
    }
  }
}

// The nranks constraint on ensemble members is now per-mode: batch > 1
// requires serial members, and threaded members (nranks > 1) agree with
// their serial twin to round-off (reductions reassociate across
// decompositions, so bitwise equality is NOT expected).
TEST(EnsembleThreaded, ThreadedMemberMatchesSerialToRoundoff) {
  auto cfg = tiny_ensemble_config();
  const auto serial = mst::run_member(cfg, 0);
  cfg.model.nranks = 2;
  const auto threaded = mst::run_member(cfg, 0);

  ASSERT_EQ(threaded.size(), serial.size());
  double max_abs = 0.0, max_diff = 0.0;
  for (std::size_t t = 0; t < serial.size(); ++t) {
    const auto a = threaded[t].flat();
    const auto b = serial[t].flat();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      max_abs = std::max(max_abs, std::abs(b[q]));
      max_diff = std::max(max_diff, std::abs(a[q] - b[q]));
    }
  }
  EXPECT_GT(max_abs, 0.0);
  EXPECT_LE(max_diff, 1e-6 * (1.0 + max_abs));

  // Batched groups stay serial-only; asking for both must fail loudly.
  cfg.batch = 2;
  EXPECT_THROW(mst::run_ensemble(cfg), mu::Error);
}
