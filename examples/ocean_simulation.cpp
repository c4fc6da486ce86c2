// Domain scenario 1: a short mini-POP climate simulation — the workload
// the paper's intro motivates. Runs the full model (nonlinear barotropic
// mode with the implicit free surface + 3D temperature tracer with
// seasonal forcing) and prints monthly diagnostics plus the cumulative
// cost of the barotropic solver.
//
//   ./ocean_simulation [--days=90] [--scale=0.12] [--nz=4]
//                      [--solver=pcsi] [--precond=evp] [--ranks=1]
//                      [--halo-depth=1..4|auto]
//                      [--block-size=NX or NXxNY]
//
// --block-size sets the decomposition's nominal block shape (e.g.
// --block-size=16x8 for rectangular blocks; a single number keeps
// squares). The header prints a decomposition summary: active/land
// blocks, ocean fraction of the swept cells, and the per-rank
// ocean-cell load imbalance the Hilbert assignment achieved.
//
// --halo-depth selects the communication-avoiding ghost-zone width
// (DESIGN.md §13): depth k buys k P-CSI sweeps per halo exchange,
// bit-identical to depth 1. "auto" asks the machine-model autotuner;
// pointwise preconditioners only (block EVP falls back to 1 with a
// warning). The header prints the resolved depth as "+ca(k=...)".
//
// With --ranks > 1 the same simulation runs on a team of virtual MPI
// ranks (threads) over the block decomposition — the code path is
// identical to a distributed-memory run. The summary line gives the
// halo rounds beside the messages rank 0 sent, so messages per round
// show without a trace.
//
// An unknown option, a malformed or out-of-range value, or more ranks
// than the decomposition has ocean blocks exits with status 2 and a
// usage line.
#include <iomanip>
#include <iostream>
#include <string>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/model/ocean_model.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

using namespace minipop;

namespace {

void run(comm::Communicator& comm, const model::ModelConfig& cfg,
         double days) {
  model::OceanModel model(comm, cfg);
  const bool root = comm.rank() == 0;
  if (root) {
    std::cout << "grid " << model.grid().nx() << "x" << model.grid().ny()
              << ", dt " << model.config().dt << " s, "
              << model.decomposition().num_active_blocks()
              << " ocean blocks on " << comm.size() << " rank(s), solver "
              << model.barotropic().solver().description() << "\n";
    const grid::Decomposition& d = model.decomposition();
    std::cout << "decomposition: " << d.block_nx() << "x" << d.block_ny()
              << " blocks, " << d.num_active_blocks() << " active / "
              << d.num_land_blocks() << " land-eliminated, ocean fraction "
              << std::fixed << std::setprecision(3) << d.ocean_fraction()
              << ", rank ocean-cell imbalance " << std::setprecision(3)
              << d.load_imbalance() << std::defaultfloat << "\n\n";
  }

  util::Table t({"day", "mean T [C]", "mean SSH [m]", "KE [m^5/s^2]",
                 "max |u| [m/s]", "solver iters/step", "solve fails"});
  util::Timer wall;
  long last_iters = 0;
  long last_steps = 0;
  double next_report = 0.0;
  while (model.time_days() < days) {
    model.step(comm);
    if (model.time_days() >= next_report) {
      const long iters = model.barotropic().total_iterations();
      const long steps = model.barotropic().total_solves();
      const double iters_per_step =
          steps > last_steps
              ? static_cast<double>(iters - last_iters) / (steps - last_steps)
              : 0.0;
      if (root) {
        t.row()
            .add(model.time_days(), 1)
            .add(model.mean_temperature(comm), 3)
            .add(model.mean_ssh(comm), 5)
            .add(model.kinetic_energy(comm), 3)
            .add(model.max_speed(comm), 3)
            .add(iters_per_step, 1)
            .add(static_cast<double>(model.barotropic().solver_failures()),
                 0);
      } else {
        // Non-root ranks still participate in the collective diagnostics.
        model.mean_temperature(comm);
        model.mean_ssh(comm);
        model.kinetic_energy(comm);
        model.max_speed(comm);
      }
      last_iters = iters;
      last_steps = steps;
      next_report += std::max(1.0, days / 10.0);
    }
  }
  if (root) {
    t.print(std::cout);
    const comm::CostCounters costs = comm.costs().counters();
    std::cout << "\n" << model.step_count() << " steps ("
              << model.time_days() << " simulated days) in "
              << wall.seconds() << " s wall clock; "
              << model.barotropic().total_iterations()
              << " total solver iterations; " << costs.halo_exchanges
              << " halo rounds at depth "
              << model.barotropic().solver().config().options.halo_depth
              << "; rank 0 sent " << costs.p2p_messages << " messages";
    if (model.barotropic().solver_failures() > 0)
      std::cout << "; " << model.barotropic().solver_failures()
                << " solve(s) FAILED (last: "
                << minipop::solver::to_string(
                       model.barotropic().last_failure())
                << ")";
    std::cout << ".\n";
  }
}

}  // namespace

constexpr const char* kUsage =
    "[--days=90] [--scale=0.12] [--nz=4] [--solver=pcsi] [--precond=evp] "
    "[--ranks=1] [--halo-depth=1..4|auto] [--block-size=NX or NXxNY]";

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  model::ModelConfig cfg;
  double days = 0.0;
  try {
    cfg.grid = grid::pop_1deg_spec(cli.get_double("scale", 0.12));
    cfg.nz = cli.get_int("nz", 4, 1);
    // --block-size=NX or NXxNY (rectangular blocks); legacy --block=N
    // still works when the new flag is absent.
    const std::string bs =
        cli.get("block-size", std::to_string(cli.get_int("block", 12)));
    const auto xpos = bs.find('x');
    cfg.block_size = util::parse_int("--block-size", bs.substr(0, xpos));
    cfg.block_size_y = xpos == std::string::npos
                           ? 0
                           : util::parse_int("--block-size",
                                             bs.substr(xpos + 1));
    if (cfg.block_size < 1 || (xpos != std::string::npos &&
                               cfg.block_size_y < 1))
      throw util::Error("--block-size=" + bs + " is not NX or NXxNY >= 1");
    cfg.solver.solver =
        solver::solver_kind_from_string(cli.get("solver", "pcsi"));
    cfg.solver.preconditioner = solver::preconditioner_kind_from_string(
        cli.get("precond", "evp"));
    const std::string hd = cli.get("halo-depth", "1");
    int& depth = cfg.solver.options.halo_depth;
    depth = hd == "auto" ? solver::kHaloDepthAuto
                         : util::parse_int("--halo-depth", hd);
    if (depth != solver::kHaloDepthAuto &&
        (depth < 1 || depth > solver::kMaxHaloDepth))
      throw util::Error("--halo-depth=" + hd + " is not 1.." +
                        std::to_string(solver::kMaxHaloDepth) +
                        " or auto");
    cfg.nranks = cli.get_int("ranks", 1, 1);
    days = cli.get_positive("days", 90.0);
    cli.reject_unread();
    // Every rank's model builds this decomposition. Building it here
    // first rejects more ranks than active ocean blocks before the team
    // starts one thread per rank.
    const grid::CurvilinearGrid g(cfg.grid);
    [[maybe_unused]] const grid::Decomposition decomp(
        g.nx(), g.ny(), g.periodic_x(),
        grid::ocean_mask(grid::synthetic_earth_bathymetry(g, cfg.bathymetry)),
        cfg.block_size,
        cfg.block_size_y > 0 ? cfg.block_size_y : cfg.block_size,
        cfg.nranks);
  } catch (const util::Error& e) {
    return cli.usage_error(e, kUsage);
  }

  if (cfg.nranks == 1) {
    comm::SerialComm comm;
    run(comm, cfg, days);
  } else {
    comm::ThreadTeam team(cfg.nranks);
    team.run([&](comm::Communicator& comm) { run(comm, cfg, days); });
  }
  return 0;
}
