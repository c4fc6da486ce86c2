// Paper Fig. 1: percentage of 0.1-degree POP execution time per
// component as core count grows, with the default diagonal-preconditioned
// ChronGear solver. The barotropic solver's share climbs from ~5% at 470
// cores to ~50% at 16,875 — the paper's motivating observation.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_0p1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header(
      "Figure 1",
      "component fractions of 0.1deg POP, ChronGear+diagonal, Yellowstone");

  util::Table t({"cores", "baroclinic", "barotropic", "barotropic(paper)"});
  struct Row {
    int p;
    const char* paper;
  };
  for (auto [p, paper] : {Row{470, "~5%"}, Row{1125, ""}, Row{2700, ""},
                          Row{5400, ""}, Row{10800, ""},
                          Row{16875, "~50%"}}) {
    const double frac =
        model.barotropic_fraction(perf::Config::kCgDiag, p);
    t.row().add_int(p).add_pct(1.0 - frac).add_pct(frac).add(paper);
  }
  t.print(std::cout);
  std::cout << "\nShape check: the barotropic share grows monotonically "
               "with cores while the\nbaroclinic share falls — the "
               "communication bottleneck of paper Sec. 2.\n";
  return 0;
}
