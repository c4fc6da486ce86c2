// Extension ablation: pipelined CG (Ghysels & Vanroose, the paper's
// ref [16]) against ChronGear and P-CSI at scale.
//
// Pipelining HIDES the reduction latency behind the matvec +
// preconditioner instead of removing reductions: per iteration,
//   T_pipe = max(T_reduction, T_comp + T_precond) + T_halo
// versus ChronGear's sum. The model shows why the paper chose the
// Chebyshev route for POP: once reductions cost more than a matvec,
// overlap can at best hide the smaller of the two, while P-CSI's rarer
// checks remove ~90% of the reduction bill outright. Pipelined CG is
// modeled only: there is no live pipelined solver to measure.
//
//   ./build/bench/bench_ablation_pipelined
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  auto machine = perf::yellowstone_profile();
  perf::PopTimingModel model(machine, grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Ablation: pipelined CG",
                      "modeled 0.1deg barotropic seconds/day on "
                      "Yellowstone — overlap vs removal of reductions");

  util::Table t({"cores", "chrongear+diag", "pipecg+diag (overlapped)",
                 "pcsi+evp"});
  for (int p : {470, 1125, 2700, 5400, 10800, 16875}) {
    // ChronGear: straight sum of the Eq. 2 components.
    auto cg = perf::iteration_costs(machine, perf::Config::kCgDiag,
                                    grid.points, p, grid.check_frequency);
    const double k_cg =
        model.iterations_of(perf::Config::kCgDiag, p);
    // Pipelined CG: same Krylov iteration count, same reduction, but the
    // reduction overlaps the computation; extra vector work (4 more
    // axpys = 8 ops/pt) is exposed.
    const double pts = static_cast<double>(grid.points) / p;
    const double comp = (perf::compute_ops_per_point(perf::Config::kCgDiag)
                         + 8.0) * pts * machine.theta;
    const double overlapped =
        std::max(cg.reduction, comp) + cg.halo;
    t.row()
        .add_int(p)
        .add(model.barotropic_per_day(perf::Config::kCgDiag, p).total(), 2)
        .add(overlapped * k_cg * grid.steps_per_day, 2)
        .add(model.barotropic_per_day(perf::Config::kPcsiEvp, p).total(),
             2);
  }
  t.print(std::cout);
  std::cout << "\nShape check: pipelining helps exactly while the "
               "reduction still fits under the\nmatvec (low/mid core "
               "counts) and saturates once reductions dominate; P-CSI\n"
               "keeps winning at scale because its reductions are rare, "
               "not merely hidden\n(paper Sec. 7's rationale for "
               "abandoning the CG family).\n";
  return 0;
}
