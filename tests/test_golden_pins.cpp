// Golden pins of BarotropicSolver::solve: iteration counts, the final
// relative residual (exact bits), the residual history, a CRC32C of
// the solution bits and the integer cost counters of the solve and of
// the solver's construction, for every configuration the solver matrix
// sweeps (solver x resilient, diagonal preconditioner), for every
// solver under block-EVP, and for pcsi+diagonal at halo depths 1 and 3
// on 1 and 4 ranks.
//
// The pins were recorded from the scalar solver classes that once ran
// solve(); they are the bit-identity oracle of the one solver stack
// that replaced them (DESIGN.md §11). A mismatch means the arithmetic
// of a solve changed. To print the table for a deliberate change, run
//   MINIPOP_PRINT_PINS=1 ./minipop_tests --gtest_filter='GoldenPins.*'
// and paste the printed rows over kPins (format: tests/golden_pin.hpp).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"
#include "tests/golden_pin.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

using minipop::test::check_pin;
using minipop::test::make_pin;
using minipop::test::Pin;

/// Bowl with a two-cell island on an nx x ny uniform grid.
struct PinProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  std::unique_ptr<mc::HaloExchanger> halo;

  PinProblem(int nx, int ny, int island_i, int island_j, int block_nx,
             int block_ny, int nranks) {
    mg::GridSpec spec;
    spec.kind = mg::GridKind::kUniform;
    spec.nx = nx;
    spec.ny = ny;
    spec.periodic_x = false;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<mg::CurvilinearGrid>(spec);
    depth = mg::bowl_bathymetry(*grid, 4000.0);
    depth(island_i, island_j) = 0.0;
    depth(island_i + 1, island_j) = 0.0;
    stencil = std::make_unique<mg::NinePointStencil>(*grid, depth, 1e-6);
    decomp = std::make_unique<mg::Decomposition>(
        nx, ny, false, stencil->mask(), block_nx, block_ny, nranks);
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

// Recorded from the scalar solver stack (see the file comment). The last
// column (refine_sweeps) is always 0 since the solvers run in fp64 only.
// The two brace rows under each pin are rank 0's integer cost counters
// of the solve and of the BarotropicSolver construction, recorded while
// the single-field DistField sweeps, field ops and preconditioner
// applies still existed beside the batch ones. The two depth-3 rows'
// solve counters were regenerated (all lower) when the depth-k schedule
// stopped exchanging r and sweeping the widest rim; every bit stayed.
const Pin kPins[] = {
    {"pcg/fp64", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0,
     {355068, 0, 0, 0, 70, 70, 140, 147, 0, 89908, 124488, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"pcg/fp64/resilient", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0,
     {355068, 0, 0, 0, 70, 70, 141, 148, 0, 89908, 124488, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"chrongear/fp64", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0,
     {392616, 0, 0, 0, 71, 71, 71, 148, 0, 63700, 88200, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"chrongear/fp64/resilient", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0,
     {392616, 0, 0, 0, 71, 71, 72, 149, 0, 63700, 88200, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"pcsi/fp64", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0,
     {427896, 0, 0, 0, 112, 112, 12, 12, 0, 61152, 84672, 0, 0},
     {85932, 0, 0, 0, 17, 17, 35, 35, 0, 24934, 34524, 0, 0}},
    {"pcsi/fp64/resilient", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0,
     {427896, 0, 0, 0, 112, 112, 13, 13, 0, 61152, 84672, 0, 0},
     {85932, 0, 0, 0, 17, 17, 35, 35, 0, 24934, 34524, 0, 0}},
    {"pcg/block-evp/fp64", 40, 0x3d5679b15ef08e57ull, 4, 0xadf6ff20u, 0x482f3280u, 0,
     {409716, 0, 0, 0, 40, 40, 81, 85, 0, 43862, 60732, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"chrongear/block-evp/fp64", 40, 0x3d5679b1409828b2ull, 4, 0x4160401du, 0x604343feu, 0,
     {432144, 0, 0, 0, 41, 41, 42, 86, 0, 29120, 40320, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"pcsi/block-evp/fp64", 50, 0x3db1c1019d3c7afdull, 5, 0xe00c392fu, 0x24ef86a1u, 0,
     {462456, 0, 0, 0, 52, 52, 7, 7, 0, 19110, 26460, 0, 0},
     {97452, 0, 0, 0, 9, 9, 19, 19, 0, 11466, 15876, 0, 0}},
    {"pcsi/diagonal/ranks1/depth1", 120, 0x3db8f2ad995cbfc6ull, 12, 0xbb1fa80fu, 0x0d8fb549u, 0,
     {888000, 0, 0, 0, 122, 122, 14, 14, 0, 133956, 175680, 0, 0},
     {221280, 0, 0, 0, 23, 23, 47, 47, 0, 67710, 88800, 0, 0}},
    {"pcsi/diagonal/ranks1/depth3", 120, 0x3db8f2ad995cbfc6ull, 12, 0xbb1fa80fu, 0x0d8fb549u, 0,
     {1219200, 331200, 0, 0, 50, 87, 14, 14, 0, 161196, 241920, 0, 0},
     {221280, 0, 0, 0, 23, 23, 47, 47, 0, 67710, 88800, 0, 0}},
    {"pcsi/diagonal/ranks4/depth1", 120, 0x3db8f2ae01154be0ull, 12, 0x7dad33b4u, 0x5c6f4dfau, 0,
     {222000, 0, 366, 46848, 122, 122, 14, 14, 380, 33672, 43920, 0, 0},
     {55320, 0, 69, 8832, 23, 23, 47, 47, 116, 17020, 22200, 0, 0}},
    {"pcsi/diagonal/ranks4/depth3", 120, 0x3db8f2ae01154be0ull, 12, 0x7dad33b4u, 0x5c6f4dfau, 0,
     {304800, 82800, 150, 52200, 50, 87, 14, 14, 164, 40428, 60480, 0, 0},
     {55320, 0, 69, 8832, 23, 23, 47, 47, 116, 17020, 22200, 0, 0}},
};

/// Solve once on `nranks` ranks through BarotropicSolver::solve and
/// reduce the outcome to a pin (rank 0's stats, gathered solution, and
/// rank 0's counters over the BarotropicSolver construction).
Pin measure(const char* label, const PinProblem& p, int nranks,
            const ms::SolverConfig& cfg, std::uint64_t rhs_seed) {
  const mu::Field rhs = p.random_rhs(rhs_seed);
  mu::Field x_global(p.grid->nx(), p.grid->ny(), 0.0);
  ms::SolveStats stats;
  mc::CostCounters setup;
  auto body = [&](mc::Communicator& comm) {
    const mc::CostCounters c0 = comm.costs().counters();
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                                *p.decomp, cfg);
    const mc::CostCounters built = comm.costs().since(c0);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(rhs);
    const ms::SolveStats s = solver.solve(comm, b, x);
    x.store_global(x_global);
    if (comm.rank() == 0) {
      stats = s;
      setup = built;
    }
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    team.run(body);
  }
  EXPECT_TRUE(stats.converged) << label;
  return make_pin(label, stats, x_global, setup);
}

void check(const Pin& got) { check_pin(got, kPins); }

// Every configuration the solver matrix sweeps, at B = 1, on its
// 18x14 bowl (one rank, four 9x7 blocks).
TEST(GoldenPins, SolverMatrixConfigurations) {
  const PinProblem p(18, 14, 9, 7, 9, 7, 1);
  const ms::SolverKind solvers[] = {
      ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
      ms::SolverKind::kPcsi};
  std::vector<std::string> labels;
  labels.reserve(16);
  for (ms::SolverKind kind : solvers)
    for (int resilient = 0; resilient < 2; ++resilient) {
      ms::SolverConfig cfg;
      cfg.solver = kind;
      cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
      cfg.options.rel_tolerance = 1e-10;
      cfg.options.record_residuals = true;
      cfg.resilient = resilient != 0;
      cfg.lanczos.rel_tolerance = 0.02;
      labels.push_back(ms::to_string(kind) + "/fp64" +
                       (resilient ? "/resilient" : ""));
      check(measure(labels.back().c_str(), p, 1, cfg, 9000));
    }
}

// The paper's block-EVP preconditioner under every solver, default
// decorators.
TEST(GoldenPins, BlockEvpConfigurations) {
  const PinProblem p(18, 14, 9, 7, 9, 7, 1);
  const ms::SolverKind solvers[] = {
      ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
      ms::SolverKind::kPcsi};
  std::vector<std::string> labels;
  labels.reserve(4);
  for (ms::SolverKind kind : solvers) {
    ms::SolverConfig cfg;
    cfg.solver = kind;
    cfg.preconditioner = ms::PreconditionerKind::kBlockEvp;
    cfg.options.rel_tolerance = 1e-10;
    cfg.options.record_residuals = true;
    cfg.lanczos.rel_tolerance = 0.02;
    labels.push_back(ms::to_string(kind) + "/block-evp/fp64");
    check(measure(labels.back().c_str(), p, 1, cfg, 9000));
  }
}

// pcsi+diagonal at halo depths 1 and 3 on 1 and 4 ranks (24x20 bowl,
// four 12x10 blocks), default decorators.
TEST(GoldenPins, PcsiDiagonalHaloDepths) {
  for (int nranks : {1, 4}) {
    const PinProblem p(24, 20, 12, 9, 12, 10, nranks);
    for (int depth : {1, 3}) {
      ms::SolverConfig cfg;
      cfg.solver = ms::SolverKind::kPcsi;
      cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
      cfg.options.rel_tolerance = 1e-10;
      cfg.options.record_residuals = true;
      cfg.options.halo_depth = depth;
      cfg.lanczos.rel_tolerance = 0.02;
      const std::string label = "pcsi/diagonal/ranks" +
                                std::to_string(nranks) + "/depth" +
                                std::to_string(depth);
      check(measure(label.c_str(), p, nranks, cfg, 4242));
    }
  }
}

}  // namespace
