// Counter-parity audit of the batched execution core (DESIGN.md §11):
// a B-member batched solve of B IDENTICAL systems runs the same
// lockstep iterations as one single (width-1) solve, so its CostTracker
// counts must relate to the single solve's counts exactly —
//
//   halo_exchanges       equal      (one aggregated round per sweep)
//   p2p_messages         equal      (aggregation: same message count)
//   halo_member_updates  B x scalar (B planes refreshed per round)
//   p2p_bytes            B x scalar (B planes' payload per message)
//   allreduces           equal      (vector reductions, not B scalar ones)
//   allreduce_doubles    B x scalar (width-B payloads)
//
// The audit runs on the composed decorator stack too (resilience), which
// is what pins down that the decorator batches its own communication
// (agreement reductions) instead of falling back to member-by-member
// traffic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/comm/thread_comm.hpp"
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

/// Bowl bathymetry with an island, split across 4 ranks so the p2p
/// counters are live.
struct ParityProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  std::unique_ptr<mc::HaloExchanger> halo;

  ParityProblem(int nx = 20, int ny = 16) {
    mg::GridSpec spec;
    spec.kind = mg::GridKind::kUniform;
    spec.nx = nx;
    spec.ny = ny;
    spec.periodic_x = false;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<mg::CurvilinearGrid>(spec);
    depth = mg::bowl_bathymetry(*grid, 4000.0);
    depth(10, 8) = 0.0;  // island
    depth(11, 8) = 0.0;
    stencil = std::make_unique<mg::NinePointStencil>(*grid, depth, 1e-6);
    decomp = std::make_unique<mg::Decomposition>(nx, ny, false,
                                                 stencil->mask(), 10, 8, 4);
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

// gtest prints the parameter's bytes in each test's name; the label
// pointer goes last so the leading bytes do not depend on where the
// linker placed the string.
struct ParityCase {
  ms::SolverKind solver;
  ms::PreconditionerKind preconditioner;
  bool resilient;
  const char* label;
};

class CostParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(CostParityTest, BatchedCountsAreExactlyBTimesScalar) {
  const ParityCase pc = GetParam();
  ParityProblem p;
  const int nranks = 4;
  const int nb = 4;
  const mu::Field rhs = p.random_rhs(7100);

  ms::SolverConfig cfg;
  cfg.solver = pc.solver;
  cfg.preconditioner = pc.preconditioner;
  cfg.options.rel_tolerance = 1e-10;
  cfg.resilient = pc.resilient;
  cfg.lanczos.rel_tolerance = 0.02;

  std::vector<mc::CostCounters> scalar_costs(nranks), batch_costs(nranks);
  std::vector<int> scalar_iters(nranks), batch_iters(nranks);

  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth,
                                *p.stencil, *p.decomp, cfg);

    // One single (width-1) solve of the reference system.
    mc::DistField b(*p.decomp, r), x(*p.decomp, r);
    b.load_global(rhs);
    auto snap = comm.costs().counters();
    const auto sstats = solver.solve(comm, b, x);
    scalar_costs[r] = comm.costs().since(snap);
    scalar_iters[r] = sstats.iterations;
    ASSERT_TRUE(sstats.converged) << pc.label;

    // One batched solve of nb copies of the SAME system: the members
    // are bit-identical, so they converge at the same lockstep sweep —
    // no early freezes, pure aggregation.
    std::vector<mc::DistField> bb, xb;
    std::vector<const mc::DistField*> bs;
    std::vector<mc::DistField*> xs;
    for (int m = 0; m < nb; ++m) {
      bb.emplace_back(*p.decomp, r);
      xb.emplace_back(*p.decomp, r);
      bb.back().load_global(rhs);
    }
    for (int m = 0; m < nb; ++m) {
      bs.push_back(&bb[m]);
      xs.push_back(&xb[m]);
    }
    snap = comm.costs().counters();
    const auto bstats = solver.solve_batch(comm, bs, xs);
    batch_costs[r] = comm.costs().since(snap);
    batch_iters[r] = bstats.iterations;
    for (int m = 0; m < nb; ++m)
      ASSERT_TRUE(bstats.members[m].converged)
          << pc.label << " member " << m;
  });

  const auto B = static_cast<std::uint64_t>(nb);
  for (int r = 0; r < nranks; ++r) {
    SCOPED_TRACE(std::string(pc.label) + " rank " + std::to_string(r));
    // Identical members -> identical lockstep trajectory.
    EXPECT_EQ(batch_iters[r], scalar_iters[r]);
    // Halo bookkeeping: same rounds and messages, B-fold payload.
    EXPECT_EQ(batch_costs[r].halo_exchanges,
              scalar_costs[r].halo_exchanges);
    EXPECT_EQ(batch_costs[r].halo_member_updates,
              B * scalar_costs[r].halo_member_updates);
    EXPECT_EQ(batch_costs[r].p2p_messages, scalar_costs[r].p2p_messages);
    EXPECT_EQ(batch_costs[r].p2p_bytes, B * scalar_costs[r].p2p_bytes);
    // Reductions: vectorized, never demuxed into B scalar rounds.
    EXPECT_EQ(batch_costs[r].allreduces, scalar_costs[r].allreduces);
    EXPECT_EQ(batch_costs[r].allreduce_doubles,
              B * scalar_costs[r].allreduce_doubles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CostParityTest,
    ::testing::Values(
        ParityCase{ms::SolverKind::kPcsi, ms::PreconditionerKind::kDiagonal,
                   false, "pcsi_fp64"},
        ParityCase{ms::SolverKind::kChronGear,
                   ms::PreconditionerKind::kDiagonal, false, "chrongear_fp64"},
        ParityCase{ms::SolverKind::kPcsi, ms::PreconditionerKind::kDiagonal,
                   true, "pcsi_fp64_resilient"},
        ParityCase{ms::SolverKind::kChronGear,
                   ms::PreconditionerKind::kDiagonal, true,
                   "chrongear_composed"},
        ParityCase{ms::SolverKind::kPcg, ms::PreconditionerKind::kDiagonal,
                   false, "pcg_fp64"},
        ParityCase{ms::SolverKind::kPcg, ms::PreconditionerKind::kDiagonal,
                   true, "pcg_composed"}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
