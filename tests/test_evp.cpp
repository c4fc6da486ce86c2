#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/evp/evp_solver.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace me = minipop::evp;
namespace mg = minipop::grid;
namespace ml = minipop::linalg;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

constexpr double kPhi = 1e-6;

mg::CurvilinearGrid uniform_grid(int nx, int ny, double dx = 1e4,
                                 double dy = 1.15e4) {
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = dx;
  spec.dy = dy;
  return mg::CurvilinearGrid(spec);
}

/// Whole-grid coefficient copy in block layout.
std::array<mu::Field, mg::kNumDirs> coeff_copy(
    const mg::NinePointStencil& st) {
  std::array<mu::Field, mg::kNumDirs> c;
  for (int d = 0; d < mg::kNumDirs; ++d)
    c[d] = st.coeff(static_cast<mg::Dir>(d));
  return c;
}

mu::Field random_field(int nx, int ny, std::uint64_t seed) {
  mu::Xoshiro256 rng(seed);
  mu::Field f(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) f(i, j) = rng.uniform(-1, 1);
  return f;
}

double solve_error_for_tile_size(int n) {
  auto g = uniform_grid(n, n);
  auto depth = mg::flat_bathymetry(g, 3500);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpOptions opt;
  opt.validate_accuracy = -1;  // instability is the subject here
  me::EvpTileSolver evp(coeff_copy(st), 0, 0, n, n, opt);

  // Dense reference: the whole-grid tile of a non-periodic grid IS the
  // full operator.
  auto a = st.to_dense();
  auto y = random_field(n, n, 99 + n);
  std::vector<double> yv(static_cast<std::size_t>(n) * n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) yv[j * n + i] = y(i, j);
  auto xv = ml::cholesky_solve(a, yv);

  mu::Field x;
  evp.solve(y, x);
  double err = 0, scale = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      err = std::max(err, std::abs(x(i, j) - xv[j * n + i]));
      scale = std::max(scale, std::abs(xv[j * n + i]));
    }
  return err / scale;
}

}  // namespace

TEST(EvpTileSolver, ExactOnSmallTiles) {
  // Paper §4.3: EVP solves with ~1e-8 round-off up to 12x12 in double
  // precision.
  EXPECT_LT(solve_error_for_tile_size(6), 1e-10);
  EXPECT_LT(solve_error_for_tile_size(12), 1e-7);
}

TEST(EvpTileSolver, RoundoffGrowsWithTileSize) {
  double e12 = solve_error_for_tile_size(12);
  double e24 = solve_error_for_tile_size(24);
  EXPECT_GT(e24, e12);
}

TEST(EvpTileSolver, SubTileSolveMatchesDenseDirichletProblem) {
  // A tile strictly inside a larger block: B is the operator restricted
  // to the tile with zero Dirichlet outside.
  const int N = 16;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2800);
  mg::NinePointStencil st(g, depth, kPhi);
  const int i0 = 3, j0 = 4, tn = 8;
  me::EvpTileSolver evp(coeff_copy(st), i0, j0, tn, tn);

  // Dense tile matrix from apply_operator columns.
  const int n2 = tn * tn;
  ml::DenseMatrix b(n2, n2);
  mu::Field e(tn, tn), col;
  for (int c = 0; c < n2; ++c) {
    e.fill(0.0);
    e(c % tn, c / tn) = 1.0;
    evp.apply_operator(e, col);
    for (int r = 0; r < n2; ++r) b(r, c) = col(r % tn, r / tn);
  }
  auto y = random_field(tn, tn, 4242);
  std::vector<double> yv(n2);
  for (int r = 0; r < n2; ++r) yv[r] = y(r % tn, r / tn);
  auto xv = ml::cholesky_solve(b, yv);

  mu::Field x;
  evp.solve(y, x);
  for (int r = 0; r < n2; ++r)
    EXPECT_NEAR(x(r % tn, r / tn), xv[r], 1e-8 * (1 + std::abs(xv[r])));
}

TEST(EvpTileSolver, ApplyOperatorMatchesStencilInterior) {
  const int N = 10;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 1800);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpTileSolver evp(coeff_copy(st), 0, 0, N, N);
  auto x = random_field(N, N, 7);
  mu::Field y_evp, y_st;
  evp.apply_operator(x, y_evp);
  st.apply(x, y_st);
  for (int j = 0; j < N; ++j)
    for (int i = 0; i < N; ++i)
      EXPECT_NEAR(y_evp(i, j), y_st(i, j),
                  1e-9 * (1 + std::abs(y_st(i, j))));
}

TEST(EvpTileSolver, SimplifiedSolvesSimplifiedOperatorExactly) {
  const int N = 10;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2000);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpOptions opt;
  opt.simplified = true;
  me::EvpTileSolver evp(coeff_copy(st), 0, 0, N, N, opt);
  auto x_true = random_field(N, N, 13);
  mu::Field y;
  evp.apply_operator(x_true, y);  // y = B_simplified x_true
  mu::Field x;
  evp.solve(y, x);
  for (int j = 0; j < N; ++j)
    for (int i = 0; i < N; ++i)
      EXPECT_NEAR(x(i, j), x_true(i, j), 1e-7 * (1 + std::abs(x_true(i, j))));
}

TEST(EvpTileSolver, SolveFlopsMatchPaperCounts) {
  const int N = 12;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2000);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpTileSolver full(coeff_copy(st), 0, 0, N, N);
  me::EvpOptions sopt;
  sopt.simplified = true;
  me::EvpTileSolver simp(coeff_copy(st), 0, 0, N, N, sopt);
  // Full ~ 22 n^2, simplified ~ 14 n^2 (paper §4.2/4.3).
  EXPECT_NEAR(static_cast<double>(full.solve_flops()), 22.0 * N * N,
              2.0 * N * N);
  EXPECT_NEAR(static_cast<double>(simp.solve_flops()), 14.0 * N * N,
              2.0 * N * N);
  EXPECT_LT(simp.solve_flops(), full.solve_flops());
}

TEST(EvpTileSolver, DegenerateOneRowTile) {
  const int N = 8;
  auto g = uniform_grid(N, 4);
  auto depth = mg::flat_bathymetry(g, 2000);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpTileSolver evp(coeff_copy(st), 0, 1, N, 1);
  auto x_true = random_field(N, 1, 3);
  mu::Field y;
  evp.apply_operator(x_true, y);
  mu::Field x;
  evp.solve(y, x);
  for (int i = 0; i < N; ++i)
    EXPECT_NEAR(x(i, 0), x_true(i, 0), 1e-8 * (1 + std::abs(x_true(i, 0))));
}

TEST(EvpTileSolver, ThrowsOnZeroPivotFromLand) {
  const int N = 8;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2000);
  depth(4, 4) = 0.0;  // unregularized land kills the NE pivot nearby
  mg::NinePointStencil st(g, depth, kPhi);
  EXPECT_THROW(me::EvpTileSolver(coeff_copy(st), 0, 0, N, N), mu::Error);
}

TEST(RegularizeLandDepth, FillsLandKeepsOcean) {
  mu::Field depth(4, 3, 0.0);
  depth(1, 1) = 5000;
  depth(2, 1) = 300;
  auto reg = me::regularize_land_depth(depth, 0.02);
  EXPECT_DOUBLE_EQ(reg(1, 1), 5000);
  EXPECT_DOUBLE_EQ(reg(2, 1), 300);
  EXPECT_DOUBLE_EQ(reg(0, 0), 100);  // 0.02 * 5000
  EXPECT_THROW(me::regularize_land_depth(depth, 0.0), mu::Error);
  mu::Field all_land(2, 2, 0.0);
  EXPECT_THROW(me::regularize_land_depth(all_land, 0.02), mu::Error);
}

// --- Block-EVP preconditioner -------------------------------------------

namespace {

struct EvpProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

EvpProblem make_masked_problem(int nx, int ny, int block, int nranks) {
  EvpProblem p;
  p.grid = std::make_unique<mg::CurvilinearGrid>(uniform_grid(nx, ny));
  p.depth = mg::bowl_bathymetry(*p.grid, 4200.0);
  p.depth(nx / 2, ny / 2) = 0.0;  // island
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, kPhi);
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, false, p.stencil->mask(), block, block, nranks);
  p.b_global = mu::Field(nx, ny, 0.0);
  mu::Xoshiro256 rng(17);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

}  // namespace

TEST(BlockEvp, ExactInverseOnAllOceanSingleBlock) {
  // With no land and one whole-grid tile, M == A, so A(M^{-1} v) == v.
  const int N = 12;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 3000);
  mg::NinePointStencil st(g, depth, kPhi);
  mg::Decomposition d(N, N, false, st.mask(), N, N, 1);
  mc::SerialComm comm;
  ms::DistOperator op(st, d, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 0;        // whole block
  opt.simplified = false;  // exact nine-point solve
  me::BlockEvpPreconditioner m(op, g, depth, opt);
  EXPECT_EQ(m.num_tiles(), 1);

  mc::DistField v(d, 0), mv(d, 0);
  v.load_global(random_field(N, N, 23));
  m.apply(comm, v, mv);
  mu::Field mv_global(N, N);
  mv.store_global(mv_global);
  mu::Field back;
  st.apply(mv_global, back);
  for (int j = 0; j < N; ++j)
    for (int i = 0; i < N; ++i)
      EXPECT_NEAR(back(i, j), v.at(0, i, j), 1e-6);
}

TEST(BlockEvp, InverseIsSymmetric) {
  const int N = 10;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 3000);
  mg::NinePointStencil st(g, depth, kPhi);
  mg::Decomposition d(N, N, false, st.mask(), N, N, 1);
  mc::SerialComm comm;
  ms::DistOperator op(st, d, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 0;
  opt.simplified = false;
  me::BlockEvpPreconditioner m(op, g, depth, opt);

  mc::DistField x(d, 0), y(d, 0), mx(d, 0), my(d, 0);
  x.load_global(random_field(N, N, 1));
  y.load_global(random_field(N, N, 2));
  m.apply(comm, x, mx);
  m.apply(comm, y, my);
  const double a = op.local_dot(comm, y, mx);
  const double b = op.local_dot(comm, x, my);
  EXPECT_NEAR(a, b, 1e-9 * std::abs(a));
}

TEST(BlockEvp, TilesCoverBlocksOnce) {
  auto p = make_masked_problem(24, 20, 24, 1);
  mc::SerialComm comm;
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 7;  // forces subdivision with remainders
  me::BlockEvpPreconditioner m(op, *p.grid, p.depth, opt);
  // 24 -> tiles of <=7 : 4 tiles; 20 -> 3 tiles; single block.
  EXPECT_EQ(m.num_tiles(), 12);

  // Applying to a constant-one field touches every ocean cell exactly
  // once (no overlap, full cover): result must be nonzero on ocean.
  mc::DistField v(*p.decomp, 0), mv(*p.decomp, 0);
  ms::fill_interior(v, 1.0);
  m.apply(comm, v, mv);
  mu::Field out(24, 20, 0.0);
  mv.store_global(out);
  long nonzero = 0, ocean = 0;
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 24; ++i)
      if (p.stencil->mask()(i, j)) {
        ++ocean;
        if (out(i, j) != 0.0) ++nonzero;
      }
  EXPECT_EQ(nonzero, ocean);

  // Land cells stay zero.
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 24; ++i)
      if (!p.stencil->mask()(i, j)) {
        EXPECT_EQ(out(i, j), 0.0);
      }
}

TEST(BlockEvp, ReducesChronGearIterationsVsDiagonal) {
  // The headline convergence result (paper Fig. 6): block-EVP cuts the
  // iteration count to roughly a third of diagonal preconditioning.
  auto p = make_masked_problem(40, 36, 10, 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  ms::SolverOptions sopt;
  sopt.rel_tolerance = 1e-11;
  ms::BatchedChronGearSolver solver(sopt);

  ms::DiagonalPreconditioner diag(op);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto s_diag = ms::solve_one(solver, comm, halo, op, diag, b, x);

  me::BlockEvpOptions eopt;
  eopt.max_tile = 0;  // tile = process block (10x10), paper configuration
  me::BlockEvpPreconditioner evp(op, *p.grid, p.depth, eopt);
  mc::DistField x2(*p.decomp, 0);
  auto s_evp = ms::solve_one(solver, comm, halo, op, evp, b, x2);

  ASSERT_TRUE(s_diag.converged);
  ASSERT_TRUE(s_evp.converged);
  EXPECT_LT(s_evp.iterations, s_diag.iterations);
  EXPECT_LT(s_evp.iterations, 0.6 * s_diag.iterations);

  // Both converge to the same solution.
  mu::Field xa(40, 36, 0.0), xb(40, 36, 0.0);
  x.store_global(xa);
  x2.store_global(xb);
  for (int j = 0; j < 36; ++j)
    for (int i = 0; i < 40; ++i) EXPECT_NEAR(xa(i, j), xb(i, j), 1e-5);
}

TEST(BlockEvp, LaneApplyMatchesTileSolveBitwise) {
  // 49 x 27 cells in 12 x 20 blocks: four 12-wide block columns and a
  // 1-wide one, block rows 20 and 7 high. Whole-block tiles (max_tile
  // = 0) at a 3e-8 accuracy gate split every 12 x 20 tile in two (and
  // nothing else), so the tiles come in four shapes — eight 12 x 10
  // (subdivided: one full pack), four 12 x 7, one 1 x 20 and one 1 x 7
  // (partial packs). A random depth with land gives every tile its own
  // coefficients, so a lane that read another lane's tile would change
  // its bits. Batch widths 1, 2, 8, 9 and 16 cover tile lanes, member
  // lanes and both together.
  const int nx = 49, ny = 27;
  auto g = uniform_grid(nx, ny);
  mu::Xoshiro256 rng(31);
  mu::Field depth(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) depth(i, j) = rng.uniform(1500.0, 4500.0);
  depth(5, 5) = depth(30, 21) = depth(48, 3) = 0.0;  // land, masked out
  mg::NinePointStencil st(g, depth, kPhi);
  mg::Decomposition d(nx, ny, false, st.mask(), 12, 20, 1);
  ms::DistOperator op(st, d, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 0;
  opt.tile_accuracy = 3e-8;
  me::BlockEvpPreconditioner m(op, g, depth, opt);

  const auto windows = m.tile_windows();
  ASSERT_EQ(static_cast<int>(windows.size()), m.num_tiles());
  EXPECT_GT(m.subdivided_tiles(), 0);
  std::map<std::pair<int, int>, int> shapes;
  for (const auto& w : windows) ++shapes[{w.nx, w.ny}];
  EXPECT_EQ(shapes, (std::map<std::pair<int, int>, int>{
                        {{12, 10}, 8}, {{12, 7}, 4}, {{1, 20}, 1},
                        {{1, 7}, 1}}));

  // Width-1 reference tiles on the same regularized coefficients.
  const mu::Field reg_depth =
      me::regularize_land_depth(depth, opt.land_epsilon);
  const mg::NinePointStencil reg(g, reg_depth, op.phi());
  me::EvpOptions topt;
  topt.simplified = opt.simplified;
  topt.validate_accuracy = opt.tile_accuracy;
  std::vector<me::EvpTileSolver> tiles;
  std::uint64_t solve_flops = 0;
  for (const auto& w : windows) {
    const auto& b = d.block(d.blocks_of_rank(0)[w.local_block]);
    std::array<mu::Field, mg::kNumDirs> coeff;
    for (int dir = 0; dir < mg::kNumDirs; ++dir) {
      coeff[dir] = mu::Field(b.nx, b.ny);
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeff[dir](i, j) =
              reg.coeff(static_cast<mg::Dir>(dir))(b.i0 + i, b.j0 + j);
    }
    tiles.emplace_back(coeff, w.i0, w.j0, w.nx, w.ny, topt);
    solve_flops += tiles.back().solve_flops();
  }

  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  mc::SerialComm comm;
  for (const int nb : {1, 2, 8, 9, 16}) {
    // Halo 1: the 1-wide blocks cannot hold the default halo of 2.
    mc::DistFieldBatch in(d, 0, nb, 1), out(d, 0, nb, 1);
    for (int lb = 0; lb < in.num_local_blocks(); ++lb)
      for (int j = 0; j < in.info(lb).ny; ++j)
        for (int i = 0; i < in.info(lb).nx; ++i)
          for (int q = 0; q < nb; ++q) in.at(lb, i, j, q) = rng.uniform(-1, 1);
    const auto before = comm.costs().counters();
    m.apply_batch(comm, in, out);
    EXPECT_EQ(comm.costs().since(before).flops, solve_flops * nb);

    mu::Field y, x;
    int differ = 0;
    for (std::size_t t = 0; t < windows.size(); ++t) {
      const auto& w = windows[t];
      const auto& mask = op.block_mask(w.local_block);
      y = mu::Field(w.nx, w.ny);
      for (int q = 0; q < nb; ++q) {
        for (int j = 0; j < w.ny; ++j)
          for (int i = 0; i < w.nx; ++i)
            y(i, j) = in.at(w.local_block, w.i0 + i, w.j0 + j, q);
        tiles[t].solve(y, x);
        for (int j = 0; j < w.ny; ++j)
          for (int i = 0; i < w.nx; ++i) {
            const double want =
                mask(w.i0 + i, w.j0 + j) ? x(i, j) : 0.0;
            if (bits(out.at(w.local_block, w.i0 + i, w.j0 + j, q)) !=
                bits(want))
              ++differ;
          }
      }
    }
    EXPECT_EQ(differ, 0) << "nb = " << nb;
  }
}

TEST(BarotropicSolver, AllConfigurationsConverge) {
  auto p = make_masked_problem(30, 24, 10, 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  for (auto solver_kind : {ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
                           ms::SolverKind::kPcsi}) {
    for (auto precond_kind :
         {ms::PreconditionerKind::kIdentity,
          ms::PreconditionerKind::kDiagonal,
          ms::PreconditionerKind::kBlockEvp}) {
      ms::SolverConfig cfg;
      cfg.solver = solver_kind;
      cfg.preconditioner = precond_kind;
      cfg.options.rel_tolerance = 1e-10;
      cfg.evp.max_tile = 10;
      cfg.lanczos.rel_tolerance = 0.02;
      ms::BarotropicSolver bs(comm, halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
      mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
      b.load_global(p.b_global);
      auto stats = bs.solve(comm, b, x);
      EXPECT_TRUE(stats.converged) << bs.description();
      if (solver_kind == ms::SolverKind::kPcsi)
        EXPECT_TRUE(bs.lanczos().has_value());
      else
        EXPECT_FALSE(bs.lanczos().has_value());
    }
  }
}

TEST(BarotropicSolver, MultiRankEvpMatchesSerial) {
  const int nranks = 4;
  auto p = make_masked_problem(24, 24, 6, nranks);
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kChronGear;
  cfg.preconditioner = ms::PreconditionerKind::kBlockEvp;
  cfg.options.rel_tolerance = 1e-11;
  cfg.evp.max_tile = 0;  // tile = 6x6 process blocks

  // Serial reference with the SAME tiling (6x6) so M is identical.
  mg::Decomposition d1(24, 24, false, p.stencil->mask(), 24, 24, 1);
  mu::Field x_serial(24, 24, 0.0);
  {
    ms::SolverConfig cfg1 = cfg;
    cfg1.evp.max_tile = 6;
    mc::SerialComm comm;
    mc::HaloExchanger halo(d1);
    ms::BarotropicSolver bs(comm, halo, *p.grid, p.depth, *p.stencil, d1,
                            cfg1);
    mc::DistField b(d1, 0), x(d1, 0);
    b.load_global(p.b_global);
    auto stats = bs.solve(comm, b, x);
    ASSERT_TRUE(stats.converged);
    x.store_global(x_serial);
  }

  mu::Field x_par(24, 24, 0.0);
  mc::ThreadTeam team(nranks);
  mc::HaloExchanger halo(*p.decomp);
  team.run([&](mc::Communicator& comm) {
    ms::BarotropicSolver bs(comm, halo, *p.grid, p.depth, *p.stencil,
                            *p.decomp, cfg);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    auto stats = bs.solve(comm, b, x);
    EXPECT_TRUE(stats.converged);
    x.store_global(x_par);
  });
  for (int j = 0; j < 24; ++j)
    for (int i = 0; i < 24; ++i)
      EXPECT_NEAR(x_par(i, j), x_serial(i, j), 1e-5);
}

TEST(SolverFactory, StringParsing) {
  EXPECT_EQ(ms::solver_kind_from_string("pcsi"), ms::SolverKind::kPcsi);
  EXPECT_EQ(ms::solver_kind_from_string("chrongear"),
            ms::SolverKind::kChronGear);
  EXPECT_EQ(ms::preconditioner_kind_from_string("evp"),
            ms::PreconditionerKind::kBlockEvp);
  EXPECT_THROW(ms::solver_kind_from_string("magic"), mu::Error);
  EXPECT_THROW(ms::preconditioner_kind_from_string("amg"), mu::Error);
  EXPECT_EQ(ms::to_string(ms::SolverKind::kPcsi), "pcsi");
  EXPECT_EQ(ms::to_string(ms::PreconditionerKind::kBlockEvp), "block-evp");
}
