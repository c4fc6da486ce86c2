// Paper Table 1: percent improvement of TOTAL 1-degree POP execution
// time versus the diagonal-preconditioned ChronGear baseline, for the
// three new solver/preconditioner options, at 48..768 cores.
// Paper row for pcsi+evp: -2.4%, 0.4%, 7.4%, 14.4%, 16.7%.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  bench::BenchOptions(argc, argv, "(no options)").finish();
  auto grid = perf::pop_1deg_case();
  perf::PopTimingModel model(perf::yellowstone_profile(), grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Table 1",
                      "total 1deg POP improvement vs chrongear+diagonal, "
                      "Yellowstone");

  util::Table t(
      {"config", "48", "96", "192", "384", "768", "paper@768"});
  struct Row {
    perf::Config c;
    const char* paper;
  };
  for (auto [c, paper] :
       {Row{perf::Config::kCgEvp, "12.1%"},
        Row{perf::Config::kPcsiDiag, "12.6%"},
        Row{perf::Config::kPcsiEvp, "16.7%"}}) {
    auto& row = t.row();
    row.add(perf::to_string(c));
    for (int p : {48, 96, 192, 384, 768})
      row.add_pct(model.improvement_vs_baseline(c, p));
    row.add(paper);
  }
  t.print(std::cout);
  std::cout << "\nShape check: improvements grow with core count; pcsi+evp "
               "can be slightly\nnegative at 48 cores (paper: -2.4%).\n";
  return 0;
}
