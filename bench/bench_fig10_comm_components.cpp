// Paper Fig. 10: execution time of the major communication components of
// the barotropic solvers in 0.1-degree POP on Yellowstone — global
// reduction (left) and boundary/halo communication (right) — for all
// four configurations. P-CSI's reductions are ~10x rarer; EVP's fewer
// iterations cut the boundary-update total.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  const int ps[] = {470, 1125, 2700, 5400, 10800, 16875};

  bench::print_header("Figure 10 (left)",
                      "global reduction seconds per simulated day");
  util::Table left({"cores", "chrongear+diag", "chrongear+evp",
                    "pcsi+diag", "pcsi+evp"});
  for (int p : ps) {
    auto& row = left.row();
    row.add_int(p);
    for (auto c : perf::kAllConfigs)
      row.add(model.barotropic_per_day(c, p).reduction, 3);
  }
  left.print(std::cout);

  bench::print_header("Figure 10 (right)",
                      "boundary (halo) communication seconds per "
                      "simulated day");
  util::Table right({"cores", "chrongear+diag", "chrongear+evp",
                     "pcsi+diag", "pcsi+evp"});
  for (int p : ps) {
    auto& row = right.row();
    row.add_int(p);
    for (auto c : perf::kAllConfigs)
      row.add(model.barotropic_per_day(c, p).halo, 3);
  }
  right.print(std::cout);

  std::cout << "\nShape check: P-CSI's reduction time is an order of "
               "magnitude below ChronGear's;\nreduction decreases below "
               "~1,200 cores then grows (paper Sec. 5.2); EVP halves the\n"
               "boundary totals via fewer iterations.\n";
  return 0;
}
