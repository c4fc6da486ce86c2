// Golden pins of BarotropicSolver::solve: iteration counts, the final
// relative residual (exact bits), the residual history and a CRC32C of
// the solution bits, for every configuration the solver matrix sweeps
// (solver x resilient x overlap, diagonal preconditioner), for every
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
const Pin kPins[] = {
    {"pcg/fp64", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"pcg/fp64/overlap", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"pcg/fp64/resilient", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"pcg/fp64/resilient/overlap", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"chrongear/fp64", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp64/overlap", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp64/resilient", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp64/resilient/overlap", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"pcsi/fp64", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp64/overlap", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp64/resilient", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp64/resilient/overlap", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pipecg/fp64", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pipecg/fp64/overlap", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pipecg/fp64/resilient", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pipecg/fp64/resilient/overlap", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pcg/block-evp/fp64", 40, 0x3d5679b15ef08e57ull, 4, 0xadf6ff20u, 0x482f3280u, 0},
    {"chrongear/block-evp/fp64", 40, 0x3d5679b1409828b2ull, 4, 0x4160401du, 0x604343feu, 0},
    {"pcsi/block-evp/fp64", 50, 0x3db1c1019d3c7afdull, 5, 0xe00c392fu, 0x24ef86a1u, 0},
    {"pipecg/block-evp/fp64", 40, 0x3d575cdca62874deull, 4, 0xe252d8dau, 0x0e14c3d2u, 0},
    {"pcsi/diagonal/ranks1/depth1", 120, 0x3db8f2ad995cbfc6ull, 12, 0xbb1fa80fu, 0x0d8fb549u, 0},
    {"pcsi/diagonal/ranks1/depth3", 120, 0x3db8f2ad995cbfc6ull, 12, 0xbb1fa80fu, 0x0d8fb549u, 0},
    {"pcsi/diagonal/ranks4/depth1", 120, 0x3db8f2ae01154be0ull, 12, 0x7dad33b4u, 0x5c6f4dfau, 0},
    {"pcsi/diagonal/ranks4/depth3", 120, 0x3db8f2ae01154be0ull, 12, 0x7dad33b4u, 0x5c6f4dfau, 0},
};

/// Solve once on `nranks` ranks through BarotropicSolver::solve and
/// reduce the outcome to a pin (rank 0's stats, gathered solution).
Pin measure(const char* label, const PinProblem& p, int nranks,
            const ms::SolverConfig& cfg, std::uint64_t rhs_seed) {
  const mu::Field rhs = p.random_rhs(rhs_seed);
  mu::Field x_global(p.grid->nx(), p.grid->ny(), 0.0);
  ms::SolveStats stats;
  auto body = [&](mc::Communicator& comm) {
    ms::BarotropicSolver solver(comm, *p.halo, *p.grid, p.depth, *p.stencil,
                                *p.decomp, cfg);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(rhs);
    const ms::SolveStats s = solver.solve(comm, b, x);
    x.store_global(x_global);
    if (comm.rank() == 0) stats = s;
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    team.run(body);
  }
  EXPECT_TRUE(stats.converged) << label;
  return make_pin(label, stats, x_global);
}

void check(const Pin& got) { check_pin(got, kPins); }

// Every configuration the solver matrix sweeps, at B = 1, on its
// 18x14 bowl (one rank, four 9x7 blocks).
TEST(GoldenPins, SolverMatrixConfigurations) {
  const PinProblem p(18, 14, 9, 7, 9, 7, 1);
  const ms::SolverKind solvers[] = {
      ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
      ms::SolverKind::kPcsi, ms::SolverKind::kPipelinedCg};
  std::vector<std::string> labels;
  labels.reserve(16);
  for (ms::SolverKind kind : solvers)
    for (int resilient = 0; resilient < 2; ++resilient)
      for (int overlap = 0; overlap < 2; ++overlap) {
        ms::SolverConfig cfg;
        cfg.solver = kind;
        cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
        cfg.options.rel_tolerance = 1e-10;
        cfg.options.overlap = overlap != 0;
        cfg.options.record_residuals = true;
        cfg.resilient = resilient != 0;
        cfg.lanczos.rel_tolerance = 0.02;
        labels.push_back(ms::to_string(kind) + "/fp64" +
                         (resilient ? "/resilient" : "") +
                         (overlap ? "/overlap" : ""));
        check(measure(labels.back().c_str(), p, 1, cfg, 9000));
      }
}

// The paper's block-EVP preconditioner under every solver, default
// decorators.
TEST(GoldenPins, BlockEvpConfigurations) {
  const PinProblem p(18, 14, 9, 7, 9, 7, 1);
  const ms::SolverKind solvers[] = {
      ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
      ms::SolverKind::kPcsi, ms::SolverKind::kPipelinedCg};
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
