// Paper Fig. 7: execution time of the barotropic mode in 1-degree POP
// for one simulated day, across the four solver/preconditioner
// configurations and core counts up to 768. Anchors: ChronGear+diag
// 0.58 s and P-CSI+EVP 0.37 s at 768 cores (1.6x).
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Figure 7",
                      "barotropic time per simulated day, 1deg POP, "
                      "Yellowstone [seconds]");

  util::Table t({"cores", "chrongear+diag", "chrongear+evp", "pcsi+diag",
                 "pcsi+evp"});
  for (int p : {16, 48, 96, 192, 384, 768}) {
    auto& row = t.row();
    row.add_int(p);
    for (auto c : perf::kAllConfigs)
      row.add(model.barotropic_per_day(c, p).total(), 3);
  }
  t.print(std::cout);
  const double cg =
      model.barotropic_per_day(perf::Config::kCgDiag, 768).total();
  const double pe =
      model.barotropic_per_day(perf::Config::kPcsiEvp, 768).total();
  std::cout << "\nAt 768 cores: chrongear+diag " << cg << " s vs pcsi+evp "
            << pe << " s -> speedup " << cg / pe
            << "x (paper: 0.58 -> 0.37, 1.6x).\n";
  return 0;
}
