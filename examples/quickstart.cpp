// Quickstart: solve one barotropic elliptic system with the paper's new
// solver (P-CSI + block-EVP) and compare it against POP's production
// ChronGear + diagonal configuration.
//
//   ./quickstart [--solver=pcsi|chrongear|pcg]
//                [--precond=evp|diagonal|identity]
//                [--nx=… --ny=…] [--tol=1e-13]
//
// Walks through the whole public API: grid -> synthetic bathymetry ->
// nine-point stencil -> block decomposition -> BarotropicSolver. An
// unknown option or a malformed or out-of-range value exits with status
// 2 and a usage line.
#include <cstdint>
#include <iostream>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/model/ocean_model.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // 1. A curvilinear grid. pop_1deg_spec(scale) mimics POP's 1-degree
  //    dipole grid; scale 0.25 gives a workstation-sized 80x96.
  grid::GridSpec spec = grid::pop_1deg_spec(0.25);
  solver::SolverConfig config;
  try {
    spec.nx = cli.get_int("nx", spec.nx, 4);
    spec.ny = cli.get_int("ny", spec.ny, 4);
    config.solver = solver::solver_kind_from_string(
        cli.get("solver", "pcsi"));
    config.preconditioner = solver::preconditioner_kind_from_string(
        cli.get("precond", "evp"));
    config.options.rel_tolerance = cli.get_positive("tol", 1e-13);
    cli.reject_unread();
  } catch (const util::Error& e) {
    return cli.usage_error(
        e, "[--solver=pcsi|chrongear|pcg] "
           "[--precond=evp|diagonal|identity] [--nx=N] [--ny=N] "
           "[--tol=1e-13]");
  }
  grid::CurvilinearGrid g(spec);
  std::cout << "grid: " << spec.describe() << "\n";

  // 2. Synthetic bathymetry: continents, islands, straits, shelves.
  auto depth = grid::synthetic_earth_bathymetry(g, {});
  auto mask = grid::ocean_mask(depth);
  std::cout << "ocean cells: " << grid::count_ocean(mask) << " ("
            << 100.0 * (1.0 - grid::land_fraction(mask)) << "% ocean)\n";

  // 3. The implicit-free-surface operator [phi - div(H grad)] at the
  //    physically consistent time step.
  const double dt = model::recommended_barotropic_dt(g);
  const double theta = 0.6;
  grid::NinePointStencil stencil(g, depth,
                                 1.0 / (9.806 * theta * theta * dt * dt));

  // 4. Block decomposition with land elimination + Hilbert assignment.
  grid::Decomposition decomp(g.nx(), g.ny(), g.periodic_x(), mask, 12, 12,
                             /*nranks=*/1);
  std::cout << "blocks: " << decomp.num_active_blocks() << " active, "
            << decomp.num_land_blocks() << " land-eliminated\n";
  comm::HaloExchanger halo(decomp);
  comm::SerialComm comm;

  // 5. The solver. P-CSI runs Lanczos at construction to bound the
  //    preconditioned spectrum (paper Sec. 3).
  solver::BarotropicSolver solver(comm, halo, g, depth, stencil, decomp,
                                  config);
  std::cout << "solver: " << solver.description();
  if (solver.lanczos())
    std::cout << "  (lanczos: " << solver.lanczos()->steps
              << " steps, interval [" << solver.lanczos()->bounds.nu << ", "
              << solver.lanczos()->bounds.mu << "])";
  std::cout << "\n";

  // 6. A right-hand side and the solve.
  comm::DistField b(decomp, 0), x(decomp, 0);
  util::Xoshiro256 rng(1);
  for (int lb = 0; lb < b.num_local_blocks(); ++lb) {
    const auto& info = b.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (mask(info.i0 + i, info.j0 + j))
          b.at(lb, i, j) = rng.uniform(-1, 1);
  }
  auto stats = solver.solve(comm, b, x);

  std::cout << "converged: " << (stats.converged ? "yes" : "NO") << " in "
            << stats.iterations << " iterations\n"
            << "global reductions: " << stats.costs.allreduces
            << ", halo updates: " << stats.costs.halo_exchanges
            << ", flops (paper count): " << stats.costs.flops << "\n";

  // Compare against the production baseline, the default SolverConfig
  // (ChronGear + diagonal), unless this run already is that baseline.
  solver::SolverConfig base;
  if (config.solver == base.solver &&
      config.preconditioner == base.preconditioner) {
    std::cout << "\n=> " << solver.description()
              << " is the production baseline.\n";
    return stats.converged ? 0 : 1;
  }
  base.options.rel_tolerance = config.options.rel_tolerance;
  solver::BarotropicSolver baseline(comm, halo, g, depth, stencil, decomp,
                                    base);
  comm::DistField x2(decomp, 0);
  auto base_stats = baseline.solve(comm, b, x2);
  const std::uint64_t ours = stats.costs.allreduces;
  const std::uint64_t theirs = base_stats.costs.allreduces;
  std::cout << "\nbaseline " << baseline.description() << ": "
            << base_stats.iterations << " iterations, " << theirs
            << " reductions\n"
            << "=> " << solver.description() << " used " << ours
            << " global reductions, ";
  if (ours < theirs)
    std::cout << theirs - ours << " fewer than the baseline's " << theirs
              << " ("
              << 100.0 * (1.0 - static_cast<double>(ours) / theirs)
              << "% fewer) — the property that makes it scale (paper "
                 "Sec. 3).\n";
  else if (ours > theirs)
    std::cout << ours - theirs << " more than the baseline's " << theirs
              << ".\n";
  else
    std::cout << "as many as the baseline.\n";
  return stats.converged ? 0 : 1;
}
