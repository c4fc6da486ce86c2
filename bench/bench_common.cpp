#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "src/model/ocean_model.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace minipop::bench {

LiveCase make_live_case(const std::string& which, double scale,
                        int block_size, std::uint64_t seed) {
  LiveCase c;
  grid::GridSpec spec = which == "0.1deg" ? grid::pop_0p1deg_spec(scale)
                                          : grid::pop_1deg_spec(scale);
  c.grid = std::make_unique<grid::CurvilinearGrid>(spec);
  grid::BathymetryOptions bopt;
  bopt.seed = seed;
  c.depth = grid::synthetic_earth_bathymetry(*c.grid, bopt);
  c.dt = model::recommended_barotropic_dt(*c.grid);
  const double theta = 0.6;
  const double phi = 1.0 / (9.806 * theta * theta * c.dt * c.dt);
  c.stencil = std::make_unique<grid::NinePointStencil>(*c.grid, c.depth,
                                                       phi);
  auto mask = c.stencil->mask();
  c.decomp = std::make_unique<grid::Decomposition>(
      c.grid->nx(), c.grid->ny(), c.grid->periodic_x(), mask, block_size,
      block_size, 1);
  c.halo = std::make_unique<comm::HaloExchanger>(*c.decomp);

  // Physically-scaled RHS: smooth random surface forcing.
  c.rhs_global = util::Field(c.grid->nx(), c.grid->ny(), 0.0);
  util::Xoshiro256 rng(seed ^ 0x5bd1e995);
  for (int j = 0; j < c.grid->ny(); ++j)
    for (int i = 0; i < c.grid->nx(); ++i)
      if (mask(i, j))
        c.rhs_global(i, j) =
            phi * c.grid->area_t()(i, j) * 0.1 * rng.uniform(-1, 1);
  return c;
}

LiveSolveResult measure_iterations(LiveCase& c,
                                   const solver::SolverConfig& config,
                                   int solves) {
  comm::SerialComm comm;
  solver::BarotropicSolver bs(comm, *c.halo, *c.grid, c.depth, *c.stencil,
                              *c.decomp, config);
  LiveSolveResult out;
  if (bs.lanczos()) out.lanczos_steps = bs.lanczos()->steps;
  if (config.preconditioner == solver::PreconditionerKind::kBlockEvp) {
    auto* evp = dynamic_cast<evp::BlockEvpPreconditioner*>(
        &bs.preconditioner());
    if (evp) out.precond_setup_flops = evp->setup_flops();
  }

  comm::DistField b(*c.decomp, 0), x(*c.decomp, 0);
  b.load_global(c.rhs_global);
  const auto snapshot = comm.costs().counters();
  util::Xoshiro256 rng(99);
  long total_iters = 0;
  for (int s = 0; s < solves; ++s) {
    auto stats = bs.solve(comm, b, x);
    out.all_converged = out.all_converged && stats.converged;
    total_iters += stats.iterations;
    // Perturb the RHS like an evolving ocean state would (but keep the
    // previous x as warm start, as POP does).
    for (int lb = 0; lb < b.num_local_blocks(); ++lb) {
      const auto& info = b.info(lb);
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i)
          b.at(lb, i, j) *= 1.0 + 0.05 * rng.uniform(-1, 1);
    }
  }
  out.mean_iterations = static_cast<double>(total_iters) / solves;
  out.costs = comm.costs().since(snapshot);
  return out;
}

solver::SolverConfig config_for(perf::Config c, double rel_tolerance,
                                int evp_max_tile) {
  solver::SolverConfig cfg;
  cfg.solver = perf::is_pcsi(c) ? solver::SolverKind::kPcsi
                                : solver::SolverKind::kChronGear;
  cfg.preconditioner = perf::is_evp(c)
                           ? solver::PreconditionerKind::kBlockEvp
                           : solver::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = rel_tolerance;
  cfg.evp.max_tile = evp_max_tile;
  return cfg;
}

void print_header(const std::string& experiment, const std::string& what) {
  std::cout << "\n==============================================================\n"
            << experiment << " — " << what << "\n"
            << "==============================================================\n";
}

namespace {

/// Runs one step of option parsing; a util::Error prints the usage line
/// and exits 2.
template <typename Step>
auto or_usage_exit(const util::Cli& cli, const std::string& usage,
                   Step step) {
  try {
    return step();
  } catch (const util::Error& e) {
    std::exit(cli.usage_error(e, usage));
  }
}

}  // namespace

BenchOptions::BenchOptions(int argc, char** argv, std::string usage)
    : cli_(argc, argv), usage_(std::move(usage)) {}

int BenchOptions::get_int(const std::string& name, int fallback) const {
  return or_usage_exit(cli_, usage_,
                       [&] { return cli_.get_int(name, fallback); });
}

double BenchOptions::get_double(const std::string& name,
                                double fallback) const {
  return or_usage_exit(cli_, usage_,
                       [&] { return cli_.get_double(name, fallback); });
}

void BenchOptions::finish() const {
  or_usage_exit(cli_, usage_, [&] { cli_.reject_unread(); });
}

BenchArgs parse_bench_args(int argc, char** argv,
                           const std::string& default_json, bool has_smoke) {
  const util::Cli cli(argc, argv);
  BenchArgs args;
  try {
    if (has_smoke) args.smoke = cli.get_bool("smoke");
    if (cli.positional().size() > 1)
      throw util::Error("more than one output path");
    args.json_path =
        cli.positional().empty() ? default_json : cli.positional()[0];
    cli.reject_unread();
  } catch (const std::exception& e) {
    std::exit(cli.usage_error(
        e, std::string(has_smoke ? "[--smoke] " : "") + "[output.json]"));
  }
  return args;
}

}  // namespace minipop::bench
