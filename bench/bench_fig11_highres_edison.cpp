// Paper Fig. 11: the Fig. 8 experiment on NERSC Edison (Aries Dragonfly
// network, higher reduction variability). Anchors at 16,875 cores:
// ChronGear+diag 26.2 s/day, P-CSI+diag 7.0 (3.7x), P-CSI+EVP 5.6x.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  perf::PopTimingModel model(perf::edison_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Figure 11 (left)",
                      "barotropic time per simulated day, 0.1deg POP, "
                      "Edison [seconds]");
  const int ps[] = {1125, 1688, 2700, 4220, 5400, 8440, 10800, 16875};
  util::Table left({"cores", "chrongear+diag", "chrongear+evp",
                    "pcsi+diag", "pcsi+evp"});
  for (int p : ps) {
    auto& row = left.row();
    row.add_int(p);
    for (auto c : perf::kAllConfigs)
      row.add(model.barotropic_per_day(c, p).total(), 2);
  }
  left.print(std::cout);

  bench::print_header("Figure 11 (right)",
                      "core simulation rate [simulated years / day]");
  util::Table right({"cores", "chrongear+diag", "chrongear+evp",
                     "pcsi+diag", "pcsi+evp"});
  for (int p : ps) {
    auto& row = right.row();
    row.add_int(p);
    for (auto c : perf::kAllConfigs)
      row.add(model.simulated_years_per_day(c, p), 2);
  }
  right.print(std::cout);

  const double cg =
      model.barotropic_per_day(perf::Config::kCgDiag, 16875).total();
  std::cout << "\nAt 16,875 cores: chrongear+diag " << cg
            << " s/day (paper 26.2); pcsi+evp speedup "
            << cg / model.barotropic_per_day(perf::Config::kPcsiEvp, 16875)
                        .total()
            << "x (paper 5.6x). Performance characteristics mirror "
               "Yellowstone (paper Sec. 5.3).\n";
  return 0;
}
