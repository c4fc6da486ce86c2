// Golden pins of BarotropicSolver::solve: iteration counts, the final
// relative residual (exact bits), the residual history and a CRC32C of
// the solution bits, for every configuration the solver matrix sweeps
// (solver x precision x resilient x overlap, diagonal preconditioner),
// for every solver and precision under block-EVP, and for
// pcsi+diagonal at halo depths 1 and 3 on 1 and 4 ranks.
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

// Recorded from the scalar solver stack (see the file comment). No pin
// here recovers from a failure, so none is affected by the convention
// change of refine_sweeps after a recovery (now summed over attempts).
const Pin kPins[] = {
    {"pcg/fp64", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"pcg/fp64/overlap", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"pcg/fp64/resilient", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"pcg/fp64/resilient/overlap", 70, 0x3db3c3f4d8252e99ull, 7, 0x148a4a77u, 0xe5267484u, 0},
    {"chrongear/fp64", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp64/overlap", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp64/resilient", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp64/resilient/overlap", 70, 0x3db37189e24d9ffbull, 7, 0x62561be2u, 0xf40867c2u, 0},
    {"chrongear/fp32", 50, 0x3ea480fca5adf0bdull, 5, 0x7ffdd93du, 0x1dd09e15u, 0},
    {"chrongear/fp32/overlap", 50, 0x3ea480fca5adf0bdull, 5, 0x7ffdd93du, 0x1dd09e15u, 0},
    {"chrongear/fp32/resilient", 50, 0x3ea480fca5adf0bdull, 5, 0x7ffdd93du, 0x1dd09e15u, 0},
    {"chrongear/fp32/resilient/overlap", 50, 0x3ea480fca5adf0bdull, 5, 0x7ffdd93du, 0x1dd09e15u, 0},
    {"chrongear/mixed", 90, 0x3da6d2502b1860eaull, 3, 0x01cafdbau, 0xbaca8157u, 2},
    {"chrongear/mixed/overlap", 90, 0x3da6d2502b1860eaull, 3, 0x01cafdbau, 0xbaca8157u, 2},
    {"chrongear/mixed/resilient", 90, 0x3da6d2502b1860eaull, 3, 0x01cafdbau, 0xbaca8157u, 2},
    {"chrongear/mixed/resilient/overlap", 90, 0x3da6d2502b1860eaull, 3, 0x01cafdbau, 0xbaca8157u, 2},
    {"pcsi/fp64", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp64/overlap", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp64/resilient", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp64/resilient/overlap", 110, 0x3dcb4b4a853eb258ull, 11, 0xeb1890ceu, 0x9bbb4dd2u, 0},
    {"pcsi/fp32", 60, 0x3eca16ce93aabcd5ull, 6, 0x7c675aa3u, 0x62a77ab3u, 0},
    {"pcsi/fp32/overlap", 60, 0x3eca16ce93aabcd5ull, 6, 0x7c675aa3u, 0x62a77ab3u, 0},
    {"pcsi/fp32/resilient", 60, 0x3eca16ce93aabcd5ull, 6, 0x7c675aa3u, 0x62a77ab3u, 0},
    {"pcsi/fp32/resilient/overlap", 60, 0x3eca16ce93aabcd5ull, 6, 0x7c675aa3u, 0x62a77ab3u, 0},
    {"pcsi/mixed", 120, 0x3da023b82c623594ull, 3, 0xc5130a6bu, 0xa3cf705du, 2},
    {"pcsi/mixed/overlap", 120, 0x3da023b82c623594ull, 3, 0xc5130a6bu, 0xa3cf705du, 2},
    {"pcsi/mixed/resilient", 120, 0x3da023b82c623594ull, 3, 0xc5130a6bu, 0xa3cf705du, 2},
    {"pcsi/mixed/resilient/overlap", 120, 0x3da023b82c623594ull, 3, 0xc5130a6bu, 0xa3cf705du, 2},
    {"pipecg/fp64", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pipecg/fp64/overlap", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pipecg/fp64/resilient", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pipecg/fp64/resilient/overlap", 70, 0x3dbc5cdb7d29211cull, 7, 0x54dcb66du, 0x231febcau, 0},
    {"pcg/block-evp/fp64", 40, 0x3d5679b15ef08e57ull, 4, 0xadf6ff20u, 0x482f3280u, 0},
    {"chrongear/block-evp/fp64", 40, 0x3d5679b1409828b2ull, 4, 0x4160401du, 0x604343feu, 0},
    {"chrongear/block-evp/fp32", 30, 0x3ecd67c13d589a7dull, 3, 0x82281b88u, 0xb282e3ebu, 0},
    {"chrongear/block-evp/mixed", 60, 0x3db54f4c6d012392ull, 3, 0xe6e5699fu, 0xb8c039fcu, 2},
    {"pcsi/block-evp/fp64", 50, 0x3db1c1019d3c7afdull, 5, 0xe00c392fu, 0x24ef86a1u, 0},
    {"pcsi/block-evp/fp32", 60, 0x3ed6cb71f6b73be2ull, 6, 0x186e2bc6u, 0x175257aeu, 0},
    {"pcsi/block-evp/mixed", 140, 0x3db795b1b860a671ull, 3, 0x13bfb0e5u, 0x6e252474u, 2},
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
  const ms::Precision precisions[] = {
      ms::Precision::kFp64, ms::Precision::kFp32, ms::Precision::kMixed};
  std::vector<std::string> labels;
  labels.reserve(64);
  for (ms::SolverKind kind : solvers)
    for (ms::Precision prec : precisions) {
      const bool lockstep = kind == ms::SolverKind::kPcsi ||
                            kind == ms::SolverKind::kChronGear;
      if (!lockstep && prec != ms::Precision::kFp64) continue;
      for (int resilient = 0; resilient < 2; ++resilient)
        for (int overlap = 0; overlap < 2; ++overlap) {
          const bool fp32 = prec == ms::Precision::kFp32;
          ms::SolverConfig cfg;
          cfg.solver = kind;
          cfg.preconditioner = ms::PreconditionerKind::kDiagonal;
          cfg.options.rel_tolerance = fp32 ? 1e-5 : 1e-10;
          cfg.options.precision = prec;
          cfg.options.overlap = overlap != 0;
          cfg.options.record_residuals = true;
          cfg.resilient = resilient != 0;
          cfg.lanczos.rel_tolerance = 0.02;
          labels.push_back(ms::to_string(kind) + "/" +
                           ms::to_string(prec) +
                           (resilient ? "/resilient" : "") +
                           (overlap ? "/overlap" : ""));
          check(measure(labels.back().c_str(), p, 1, cfg, 9000));
        }
    }
}

// The paper's block-EVP preconditioner under every solver and every
// precision that composes with it, default decorators.
TEST(GoldenPins, BlockEvpConfigurations) {
  const PinProblem p(18, 14, 9, 7, 9, 7, 1);
  const ms::SolverKind solvers[] = {
      ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
      ms::SolverKind::kPcsi, ms::SolverKind::kPipelinedCg};
  const ms::Precision precisions[] = {
      ms::Precision::kFp64, ms::Precision::kFp32, ms::Precision::kMixed};
  std::vector<std::string> labels;
  labels.reserve(16);
  for (ms::SolverKind kind : solvers)
    for (ms::Precision prec : precisions) {
      const bool lockstep = kind == ms::SolverKind::kPcsi ||
                            kind == ms::SolverKind::kChronGear;
      if (!lockstep && prec != ms::Precision::kFp64) continue;
      ms::SolverConfig cfg;
      cfg.solver = kind;
      cfg.preconditioner = ms::PreconditionerKind::kBlockEvp;
      cfg.options.rel_tolerance =
          prec == ms::Precision::kFp32 ? 1e-5 : 1e-10;
      cfg.options.precision = prec;
      cfg.options.record_residuals = true;
      cfg.lanczos.rel_tolerance = 0.02;
      labels.push_back(ms::to_string(kind) + "/block-evp/" +
                       ms::to_string(prec));
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
