// Domain scenario 2: a solver scaling study like the paper's Sec. 5 —
// given a target machine and grid, where does ChronGear stop scaling,
// where is the P-CSI crossover, and what configuration should production
// use at each core count?
//
// Combines LIVE iteration counts measured from this repository's solvers
// on a scaled grid with the calibrated machine model (see DESIGN.md for
// why wall times at 16,875 cores come from a model).
//
//   ./scaling_study [--machine=yellowstone|edison] [--grid=0.1deg|1deg]
//                   [--scale=0.05] [--live=1]
//
// An unknown option or a malformed or out-of-range value exits with
// status 2 and a usage line.
#include <iostream>

#include "src/perf/pop_timing_model.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/table.hpp"

#include "../bench/bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  std::string machine_name, grid_name;
  bool live = true;
  double scale = 0.0;
  try {
    machine_name = cli.get("machine", "yellowstone");
    grid_name = cli.get("grid", "0.1deg");
    live = cli.get_bool("live", true);
    scale = cli.get_double("scale", grid_name == "1deg" ? 0.25 : 0.05);
    if (machine_name != "yellowstone" && machine_name != "edison")
      throw util::Error("--machine=" + machine_name +
                        " is not yellowstone or edison");
    if (grid_name != "0.1deg" && grid_name != "1deg")
      throw util::Error("--grid=" + grid_name + " is not 0.1deg or 1deg");
    if (!(scale > 0.0 && scale <= 1.0))
      throw util::Error("--scale=" + cli.get("scale", "") +
                        " is not in (0, 1]");
    cli.reject_unread();
  } catch (const util::Error& e) {
    return cli.usage_error(e,
                           "[--machine=yellowstone|edison] "
                           "[--grid=0.1deg|1deg] [--scale=0.05] [--live=1]");
  }

  const perf::MachineProfile machine = machine_name == "edison"
                                           ? perf::edison_profile()
                                           : perf::yellowstone_profile();
  perf::GridCase grid = grid_name == "1deg" ? perf::pop_1deg_case()
                                            : perf::pop_0p1deg_case();
  perf::IterationModel iters = perf::paper_iteration_model(grid);

  if (live) {
    // Measure the diagonal-preconditioner iteration counts live on a
    // scaled grid and rescale the model's inputs by the observed
    // P-CSI/ChronGear ratio (conditioning transfers across scales; the
    // absolute counts are resolution-dependent, so keep the calibrated
    // cg_diag and move pcsi_diag with the live ratio).
    std::cout << "measuring live iteration ratio on the scaled grid...\n";
    auto c = bench::make_live_case(grid_name, scale, 12);
    auto cg = bench::measure_iterations(
        c, bench::config_for(perf::Config::kCgDiag, 1e-12));
    auto pcsi = bench::measure_iterations(
        c, bench::config_for(perf::Config::kPcsiDiag, 1e-12));
    const double ratio = pcsi.mean_iterations / cg.mean_iterations;
    std::cout << "live: chrongear " << cg.mean_iterations << " iters, "
              << "pcsi " << pcsi.mean_iterations << " iters (ratio "
              << ratio << ")\n";
    iters.pcsi_diag = iters.cg_diag * ratio;
  }

  perf::PopTimingModel model(machine, grid, iters);

  std::cout << "\nScaling study: " << grid.name << " POP on "
            << machine.name << "\n";
  util::Table t({"cores", "chrongear+diag [s/day]", "pcsi+evp [s/day]",
                 "speedup", "SYPD (pcsi+evp)", "recommended"});
  int crossover = -1;
  for (int p : {128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}) {
    if (p > grid.points / 16) break;  // at least 16 cells per rank
    const double cg =
        model.barotropic_per_day(perf::Config::kCgDiag, p).total();
    const double pe =
        model.barotropic_per_day(perf::Config::kPcsiEvp, p).total();
    if (crossover < 0 && pe < cg) crossover = p;
    t.row()
        .add_int(p)
        .add(cg, 3)
        .add(pe, 3)
        .add(cg / pe, 2)
        .add(model.simulated_years_per_day(perf::Config::kPcsiEvp, p), 2)
        .add(pe < cg ? "pcsi+evp" : "chrongear+diag");
  }
  t.print(std::cout);
  if (crossover > 0)
    std::cout << "\nP-CSI+EVP wins from ~" << crossover
              << " cores upward on this machine/grid.\n";
  return 0;
}
