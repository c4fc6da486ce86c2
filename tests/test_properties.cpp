// Parameterized property sweeps: every (solver x preconditioner) pair on
// the same masked problem, stencil invariants across grid families,
// halo-exchange correctness across decomposition shapes, EVP exactness
// across tile shapes, and tridiagonal eigenvalues across sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/evp/evp_solver.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/linalg/tridiag_eigen.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace me = minipop::evp;
namespace mg = minipop::grid;
namespace ml = minipop::linalg;
namespace ms = minipop::solver;
namespace mu = minipop::util;

// ---------------------------------------------------------------------
// Every solver x preconditioner combination solves the same masked
// problem to the same answer.
// ---------------------------------------------------------------------

class SolverMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<ms::SolverKind, ms::PreconditionerKind>> {};

TEST_P(SolverMatrixTest, SolvesMaskedAnisotropicProblem) {
  const auto [solver_kind, precond_kind] = GetParam();

  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = 22;
  spec.ny = 18;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  mg::CurvilinearGrid g(spec);
  auto depth = mg::bowl_bathymetry(g, 4000.0);
  depth(11, 9) = 0.0;  // island
  depth(12, 9) = 0.0;
  mg::NinePointStencil st(g, depth, 1e-6);
  mg::Decomposition d(22, 18, false, st.mask(), 11, 9, 1);
  mc::HaloExchanger halo(d);
  mc::SerialComm comm;

  ms::SolverConfig cfg;
  cfg.solver = solver_kind;
  cfg.preconditioner = precond_kind;
  cfg.options.rel_tolerance = 1e-11;
  cfg.evp.max_tile = 9;
  cfg.lanczos.rel_tolerance = 0.02;
  ms::BarotropicSolver solver(comm, halo, g, depth, st, d, cfg);

  mu::Xoshiro256 rng(3);
  mc::DistField b(d, 0), x(d, 0);
  mu::Field b_global(22, 18, 0.0);
  for (int j = 0; j < 18; ++j)
    for (int i = 0; i < 22; ++i)
      if (st.mask()(i, j)) b_global(i, j) = rng.uniform(-1, 1);
  b.load_global(b_global);

  auto stats = solver.solve(comm, b, x);
  ASSERT_TRUE(stats.converged) << solver.description();

  // Dense reference.
  auto a = st.to_dense();
  std::vector<double> bv(22 * 18);
  for (int j = 0; j < 18; ++j)
    for (int i = 0; i < 22; ++i) bv[j * 22 + i] = b_global(i, j);
  auto xv = ml::cholesky_solve(a, bv);
  mu::Field x_global(22, 18, 0.0);
  x.store_global(x_global);
  double scale = 0;
  for (double v : xv) scale = std::max(scale, std::abs(v));
  for (int j = 0; j < 18; ++j)
    for (int i = 0; i < 22; ++i)
      EXPECT_NEAR(x_global(i, j), xv[j * 22 + i], 1e-6 * scale)
          << solver.description() << " at (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, SolverMatrixTest,
    ::testing::Combine(
        ::testing::Values(ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
                          ms::SolverKind::kPcsi),
        ::testing::Values(ms::PreconditionerKind::kIdentity,
                          ms::PreconditionerKind::kDiagonal,
                          ms::PreconditionerKind::kBlockEvp)),
    [](const auto& info) {
      std::string name = ms::to_string(std::get<0>(info.param)) + "_" +
                         ms::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------
// Stencil invariants across grid families and masks.
// ---------------------------------------------------------------------

class StencilPropertyTest
    : public ::testing::TestWithParam<std::tuple<mg::GridKind, bool, int>> {
 protected:
  void build() {
    const auto [kind, periodic, seed] = GetParam();
    mg::GridSpec spec;
    spec.kind = kind;
    spec.nx = 16;
    spec.ny = 14;
    spec.periodic_x = periodic;
    spec.dx = 9.0e3;
    spec.dy = 1.15e4;
    grid_ = std::make_unique<mg::CurvilinearGrid>(spec);
    // Random masked depth: ~20% land.
    depth_ = mu::Field(16, 14, 0.0);
    mu::Xoshiro256 rng(seed);
    for (int j = 0; j < 14; ++j)
      for (int i = 0; i < 16; ++i)
        depth_(i, j) = rng.uniform() < 0.8 ? rng.uniform(100, 5000) : 0.0;
    stencil_ = std::make_unique<mg::NinePointStencil>(*grid_, depth_,
                                                      2e-7);
  }
  std::unique_ptr<mg::CurvilinearGrid> grid_;
  mu::Field depth_;
  std::unique_ptr<mg::NinePointStencil> stencil_;
};

TEST_P(StencilPropertyTest, SymmetricPositiveDefinite) {
  build();
  auto a = stencil_->to_dense();
  EXPECT_TRUE(a.is_symmetric(1e-9));
  std::vector<double> ones(a.rows(), 1.0);
  EXPECT_NO_THROW(ml::cholesky_solve(a, ones));
}

TEST_P(StencilPropertyTest, RowSumsArePhiArea) {
  build();
  for (int j = 0; j < 14; ++j)
    for (int i = 0; i < 16; ++i) {
      double sum = 0;
      for (int d = 0; d < mg::kNumDirs; ++d)
        sum += stencil_->coeff(static_cast<mg::Dir>(d))(i, j);
      EXPECT_NEAR(sum, stencil_->phi() * grid_->area_t()(i, j),
                  1e-8 * std::max(1.0, stencil_->diagonal()(i, j)));
    }
}

TEST_P(StencilPropertyTest, NoCouplingAcrossCoastlines) {
  build();
  const auto& mask = stencil_->mask();
  for (int j = 0; j < 14; ++j)
    for (int i = 0; i < 16; ++i)
      for (int d = 1; d < mg::kNumDirs; ++d) {
        auto [di, dj] = mg::kDirOffset[d];
        int ii = i + di;
        const int jj = j + dj;
        if (jj < 0 || jj >= 14) continue;
        if (stencil_->periodic_x())
          ii = (ii % 16 + 16) % 16;
        else if (ii < 0 || ii >= 16)
          continue;
        if (mask(i, j) != mask(ii, jj)) {
          EXPECT_EQ(stencil_->coeff(static_cast<mg::Dir>(d))(i, j), 0.0);
        }
      }
}

TEST_P(StencilPropertyTest, ApplyAgreesWithDense) {
  build();
  auto a = stencil_->to_dense();
  mu::Xoshiro256 rng(77);
  mu::Field x(16, 14), y;
  std::vector<double> xv(16 * 14);
  for (int j = 0; j < 14; ++j)
    for (int i = 0; i < 16; ++i) {
      x(i, j) = rng.uniform(-1, 1);
      xv[j * 16 + i] = x(i, j);
    }
  stencil_->apply(x, y);
  auto yv = a.apply(xv);
  for (int j = 0; j < 14; ++j)
    for (int i = 0; i < 16; ++i)
      EXPECT_NEAR(y(i, j), yv[j * 16 + i],
                  1e-7 * std::max(1.0, std::abs(yv[j * 16 + i])));
}

namespace {
std::string grid_kind_name(mg::GridKind k) {
  switch (k) {
    case mg::GridKind::kUniform: return "uniform";
    case mg::GridKind::kLatLon: return "latlon";
    case mg::GridKind::kDisplacedPole: return "dipole";
  }
  return "unknown";
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    GridFamilies, StencilPropertyTest,
    ::testing::Combine(::testing::Values(mg::GridKind::kUniform,
                                         mg::GridKind::kLatLon,
                                         mg::GridKind::kDisplacedPole),
                       ::testing::Bool(), ::testing::Values(11, 23)),
    [](const auto& info) {
      return grid_kind_name(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_periodic" : "_closed") +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Halo exchange across decomposition shapes and rank counts.
// ---------------------------------------------------------------------

class HaloPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::pair<int, int>, bool, int, int, int>> {};

TEST_P(HaloPropertyTest, HalosMatchGlobalField) {
  const auto [dims, periodic, block, ranks, halo_width] = GetParam();
  const auto [nx, ny] = dims;
  mu::MaskArray mask(nx, ny, 1);
  mg::Decomposition d(nx, ny, periodic, mask, block, block, ranks);
  mu::Field global(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) global(i, j) = 1 + i + 1000.0 * j;
  mc::HaloExchanger hx(d);

  auto check = [&](const mc::DistField& f) {
    for (int lb = 0; lb < f.num_local_blocks(); ++lb) {
      const auto& b = f.info(lb);
      for (int j = -halo_width; j < b.ny + halo_width; ++j)
        for (int i = -halo_width; i < b.nx + halo_width; ++i) {
          if (i >= 0 && i < b.nx && j >= 0 && j < b.ny) continue;
          int gi = b.i0 + i;
          const int gj = b.j0 + j;
          double expected = 0.0;
          if (gj >= 0 && gj < ny) {
            if (periodic) gi = (gi % nx + nx) % nx;
            if (gi >= 0 && gi < nx) expected = global(gi, gj);
          }
          ASSERT_DOUBLE_EQ(f.at(lb, i, j), expected);
        }
    }
  };

  if (ranks == 1) {
    mc::SerialComm comm;
    mc::DistField f(d, 0, halo_width);
    f.load_global(global);
    hx.exchange(comm, f);
    check(f);
  } else {
    mc::ThreadTeam team(ranks);
    team.run([&](mc::Communicator& comm) {
      mc::DistField f(d, comm.rank(), halo_width);
      f.load_global(global);
      hx.exchange(comm, f);
      check(f);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HaloPropertyTest,
    ::testing::Combine(
        ::testing::Values(std::pair{16, 12}, std::pair{15, 10},
                          std::pair{24, 8}),
        ::testing::Bool(), ::testing::Values(4, 6),
        ::testing::Values(1, 3), ::testing::Values(1, 2)),
    [](const auto& info) {
      return "g" + std::to_string(std::get<0>(info.param).first) + "x" +
             std::to_string(std::get<0>(info.param).second) +
             (std::get<1>(info.param) ? "_per" : "_clo") + "_b" +
             std::to_string(std::get<2>(info.param)) + "_r" +
             std::to_string(std::get<3>(info.param)) + "_h" +
             std::to_string(std::get<4>(info.param));
    });

// ---------------------------------------------------------------------
// EVP tile exactness across tile shapes (including rectangles).
// ---------------------------------------------------------------------

class EvpShapeTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EvpShapeTest, SolvesDirichletTileExactly) {
  const auto [tnx, tny] = GetParam();
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = tnx + 4;
  spec.ny = tny + 4;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  mg::CurvilinearGrid g(spec);
  auto depth = mg::flat_bathymetry(g, 2600.0);
  mg::NinePointStencil st(g, depth, 1e-6);
  std::array<mu::Field, mg::kNumDirs> coeff;
  for (int d = 0; d < mg::kNumDirs; ++d)
    coeff[d] = st.coeff(static_cast<mg::Dir>(d));

  me::EvpTileSolver evp(coeff, 2, 2, tnx, tny);
  mu::Xoshiro256 rng(9);
  mu::Field x_true(tnx, tny), y, x;
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  evp.apply_operator(x_true, y);
  evp.solve(y, x);
  for (int j = 0; j < tny; ++j)
    for (int i = 0; i < tnx; ++i)
      EXPECT_NEAR(x(i, j), x_true(i, j), 1e-6)
          << tnx << "x" << tny << " at (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    TileShapes, EvpShapeTest,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 8}, std::pair{8, 1},
                      std::pair{2, 2}, std::pair{3, 12}, std::pair{12, 3},
                      std::pair{7, 9}, std::pair{12, 12}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------
// Tridiagonal eigensolver across sizes.
// ---------------------------------------------------------------------

class TridiagSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(TridiagSizeTest, MatchesAnalyticLaplacianSpectrum) {
  const int n = GetParam();
  ml::Tridiagonal t;
  t.d.assign(n, 2.0);
  t.e.assign(n - 1, -1.0);
  auto ext = ml::tridiag_extreme_eigenvalues(t);
  EXPECT_NEAR(ext.min, 2.0 - 2.0 * std::cos(M_PI / (n + 1)), 1e-9);
  EXPECT_NEAR(ext.max, 2.0 - 2.0 * std::cos(n * M_PI / (n + 1)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagSizeTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 55, 144));

// ---------------------------------------------------------------------
// The full ocean model steps stably under every solver configuration.
// ---------------------------------------------------------------------

#include "src/model/ocean_model.hpp"

class ModelSolverSweep
    : public ::testing::TestWithParam<
          std::tuple<ms::SolverKind, ms::PreconditionerKind>> {};

TEST_P(ModelSolverSweep, ShortRunIsStableAndConverges) {
  const auto [solver_kind, precond_kind] = GetParam();
  minipop::model::ModelConfig cfg;
  cfg.grid = mg::pop_1deg_spec(0.08);
  cfg.nz = 2;
  cfg.block_size = 12;
  cfg.nranks = 1;
  cfg.solver.solver = solver_kind;
  cfg.solver.preconditioner = precond_kind;
  mc::SerialComm comm;
  minipop::model::OceanModel model(comm, cfg);
  for (int s = 0; s < 15; ++s) {
    auto stats = model.step(comm);
    ASSERT_TRUE(stats.converged)
        << ms::to_string(solver_kind) << "+" << ms::to_string(precond_kind)
        << " step " << s;
  }
  EXPECT_LT(model.max_speed(comm), 2.0);
  EXPECT_TRUE(std::isfinite(model.mean_temperature(comm)));
  EXPECT_TRUE(std::isfinite(model.kinetic_energy(comm)));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, ModelSolverSweep,
    ::testing::Values(
        std::tuple{ms::SolverKind::kPcg,
                   ms::PreconditionerKind::kDiagonal},
        std::tuple{ms::SolverKind::kPcg,
                   ms::PreconditionerKind::kBlockEvp},
        std::tuple{ms::SolverKind::kChronGear,
                   ms::PreconditionerKind::kDiagonal},
        std::tuple{ms::SolverKind::kChronGear,
                   ms::PreconditionerKind::kBlockEvp},
        std::tuple{ms::SolverKind::kPcsi,
                   ms::PreconditionerKind::kDiagonal},
        std::tuple{ms::SolverKind::kPcsi,
                   ms::PreconditionerKind::kBlockEvp}),
    [](const auto& info) {
      std::string name = ms::to_string(std::get<0>(info.param)) + "_" +
                         ms::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------
// Decomposition invariants across block geometries and rank counts.
// ---------------------------------------------------------------------

class DecompositionSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool, int>> {};

TEST_P(DecompositionSweep, PartitionInvariants) {
  const auto [block, ranks, periodic, seed] = GetParam();
  mg::CurvilinearGrid g(mg::pop_1deg_spec(0.15));
  mg::BathymetryOptions bopt;
  bopt.seed = static_cast<std::uint64_t>(seed);
  auto depth = mg::synthetic_earth_bathymetry(g, bopt);
  auto mask = mg::ocean_mask(depth);
  mg::Decomposition d(g.nx(), g.ny(), periodic, mask, block, block, ranks);

  // Every ocean cell lands in exactly one active block; no active block
  // is all land.
  mu::Array2D<int> covered(g.nx(), g.ny(), 0);
  long ocean_in_blocks = 0;
  for (const auto& b : d.blocks()) {
    EXPECT_GT(b.ocean_cells, 0);
    EXPECT_GE(b.owner, 0);
    EXPECT_LT(b.owner, ranks);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) {
        covered(b.i0 + i, b.j0 + j) += 1;
        if (mask(b.i0 + i, b.j0 + j)) ++ocean_in_blocks;
      }
  }
  for (int j = 0; j < g.ny(); ++j)
    for (int i = 0; i < g.nx(); ++i) {
      EXPECT_LE(covered(i, j), 1);
      if (mask(i, j)) {
        EXPECT_EQ(covered(i, j), 1);
      }
    }
  EXPECT_EQ(ocean_in_blocks, mg::count_ocean(mask));

  // Neighbor relation is symmetric.
  for (const auto& b : d.blocks()) {
    for (int dir = 1; dir < mg::kNumDirs; ++dir) {
      const int nid = d.neighbor(b.id, static_cast<mg::Dir>(dir));
      if (nid < 0) continue;
      bool back = false;
      for (int rdir = 1; rdir < mg::kNumDirs; ++rdir)
        if (d.neighbor(nid, static_cast<mg::Dir>(rdir)) == b.id)
          back = true;
      EXPECT_TRUE(back) << "asymmetric neighbors " << b.id << " / " << nid;
    }
  }

  // Load balance stays sane for these block/rank combinations.
  EXPECT_LT(d.load_imbalance(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, DecompositionSweep,
    ::testing::Combine(::testing::Values(6, 8, 12), ::testing::Values(1, 4),
                       ::testing::Bool(), ::testing::Values(2015, 77)),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_per" : "_clo") + "_s" +
             std::to_string(std::get<3>(info.param));
    });
