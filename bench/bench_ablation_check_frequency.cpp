// Ablation: convergence-check frequency. The paper checks every 10
// iterations for all solvers (§5.2) and notes P-CSI "may improve if the
// check for convergence occurs less frequently" — because for P-CSI the
// check IS its only global reduction. We measure both effects:
//  * live: extra iterations done because convergence is only observed
//    every k iterations (overshoot);
//  * model: reduction seconds/day saved at scale by rarer checks.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  const bench::BenchOptions opts(argc, argv, "[--scale=0.2]");
  const double scale = opts.get_double("scale", 0.2);
  opts.finish();
  auto c = bench::make_live_case("1deg", scale, 12);

  bench::print_header("Ablation: check frequency",
                      "live P-CSI iterations & reductions vs check "
                      "frequency (1deg-scaled grid)");
  util::Table t({"check every", "iterations", "allreduces per solve"});
  for (int freq : {1, 2, 5, 10, 20, 50}) {
    auto cfg = bench::config_for(perf::Config::kPcsiDiag, 1e-12);
    cfg.options.check_frequency = freq;
    auto res = bench::measure_iterations(c, cfg, 3);
    t.row()
        .add_int(freq)
        .add(res.mean_iterations, 1)
        .add(static_cast<double>(res.costs.allreduces) / 3.0, 1);
  }
  t.print(std::cout);

  bench::print_header("Ablation: check frequency",
                      "modeled 0.1deg P-CSI+EVP seconds/day at 16,875 "
                      "cores vs check frequency");
  auto grid = perf::pop_0p1deg_case();
  util::Table t2({"check every", "barotropic s/day", "reduction s/day"});
  for (int freq : {1, 2, 5, 10, 20, 50}) {
    auto g = grid;
    g.check_frequency = freq;
    perf::PopTimingModel model(perf::yellowstone_profile(), g,
                               perf::paper_iteration_model(g));
    auto cost = model.barotropic_per_day(perf::Config::kPcsiEvp, 16875);
    t2.row().add_int(freq).add(cost.total(), 2).add(cost.reduction, 2);
  }
  t2.print(std::cout);
  std::cout << "\nShape check: iterations overshoot by at most "
               "(frequency-1); the modeled\nreduction time falls as 1/"
               "frequency — checking every iteration would erase much\n"
               "of P-CSI's advantage (paper Sec. 5.2 note).\n";
  return 0;
}
