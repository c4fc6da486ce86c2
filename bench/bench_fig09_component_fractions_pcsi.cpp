// Paper Fig. 9: the Fig. 1 component-fraction plot repeated with the
// new P-CSI + block-EVP solver: the barotropic share stays low (~16% at
// 16,875 cores instead of ~50%).
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header(
      "Figure 9",
      "component fractions of 0.1deg POP, P-CSI + block-EVP, Yellowstone");

  util::Table t({"cores", "baroclinic", "barotropic", "barotropic(paper)"});
  struct Row {
    int p;
    const char* paper;
  };
  for (auto [p, paper] : {Row{470, ""}, Row{1125, ""}, Row{2700, ""},
                          Row{5400, ""}, Row{10800, ""},
                          Row{16875, "~16%"}}) {
    const double frac =
        model.barotropic_fraction(perf::Config::kPcsiEvp, p);
    t.row().add_int(p).add_pct(1.0 - frac).add_pct(frac).add(paper);
  }
  t.print(std::cout);
  std::cout << "\nShape check: compare with Figure 1 — the solver share "
               "no longer explodes at\nhigh core counts.\n";
  return 0;
}
