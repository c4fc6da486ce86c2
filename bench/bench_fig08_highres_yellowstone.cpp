// Paper Fig. 8: (left) barotropic time per simulated day in 0.1-degree
// POP on Yellowstone for the four configurations; (right) core
// simulation rate (simulated years per wall-clock day). Anchors at
// 16,875 cores: ChronGear+diag 19.0 s/day vs P-CSI+diag 4.4 (4.3x) and
// P-CSI+EVP (5.2x); simulation rate 6.2 -> 10.5 SYPD.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Figure 8 (left)",
                      "barotropic time per simulated day, 0.1deg POP, "
                      "Yellowstone [seconds]");
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

  bench::print_header("Figure 8 (right)",
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
  std::cout << "\nAt 16,875 cores: chrongear+diag " << cg << " s/day;"
            << " pcsi+diag speedup "
            << cg / model.barotropic_per_day(perf::Config::kPcsiDiag, 16875)
                        .total()
            << "x (paper 4.3x); pcsi+evp speedup "
            << cg / model.barotropic_per_day(perf::Config::kPcsiEvp, 16875)
                        .total()
            << "x (paper 5.2x).\nSimulation rate "
            << model.simulated_years_per_day(perf::Config::kCgDiag, 16875)
            << " -> "
            << model.simulated_years_per_day(perf::Config::kPcsiEvp, 16875)
            << " SYPD (paper 6.2 -> 10.5).\n";
  return 0;
}
