// Paper Fig. 2: time per simulated day spent in the global reduction and
// in halo updating inside the ChronGear solver (0.1 degree, Yellowstone).
// Reduction time dips until ~1,200 cores (the local masking shrinks) and
// then grows (tree depth + noise); halo time decreases towards its
// 4-message latency floor.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Figure 2",
                      "ChronGear global-reduction vs halo time per "
                      "simulated day (0.1deg, Yellowstone)");

  util::Table t({"cores", "reduction[s]", "halo[s]", "computation[s]"});
  for (int p : {470, 752, 1200, 1880, 2700, 4220, 5400, 8440, 16875}) {
    auto c = model.barotropic_per_day(perf::Config::kCgDiag, p);
    t.row().add_int(p).add(c.reduction, 2).add(c.halo, 2).add(
        c.computation, 2);
  }
  t.print(std::cout);
  std::cout << "\nShape check: reduction has an interior minimum near "
               "~1,200 cores and dominates\nbeyond a couple thousand "
               "cores (paper Sec. 2.2).\n";
  return 0;
}
