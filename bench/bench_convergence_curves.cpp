// Extension bench: convergence curves (relative residual vs iteration)
// for the four paper configurations, on a live scaled 1-degree problem.
// Not a paper figure, but the behaviour behind Fig. 6's averages:
// CG-family curves dive monotonically; the Chebyshev (P-CSI) curve
// contracts at the fixed asymptotic rate set by the eigenvalue interval.
#include <iostream>

#include "bench_common.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  const bench::BenchOptions opts(argc, argv, "[--scale=0.2]");
  const double scale = opts.get_double("scale", 0.2);
  opts.finish();
  auto c = bench::make_live_case("1deg", scale, 12);

  bench::print_header("Convergence curves",
                      "relative residual every 10 iterations (live "
                      "1deg-scaled grid, tol 1e-12)");

  struct Series {
    std::string name;
    std::vector<std::pair<int, double>> history;
  };
  std::vector<Series> series;

  comm::SerialComm comm;
  for (const std::string name :
       {"chrongear+diag", "chrongear+evp", "pcsi+diag", "pcsi+evp"}) {
    solver::SolverConfig cfg;
    cfg.options.rel_tolerance = 1e-12;
    cfg.options.record_residuals = true;
    cfg.lanczos.rel_tolerance = 0.15;
    cfg.solver = name.rfind("pcsi", 0) == 0 ? solver::SolverKind::kPcsi
                                             : solver::SolverKind::kChronGear;
    cfg.preconditioner = name.find("evp") != std::string::npos
                             ? solver::PreconditionerKind::kBlockEvp
                             : solver::PreconditionerKind::kDiagonal;
    cfg.evp.max_tile = 0;

    solver::BarotropicSolver bs(comm, *c.halo, *c.grid, c.depth,
                                *c.stencil, *c.decomp, cfg);
    comm::DistField b(*c.decomp, 0), x(*c.decomp, 0);
    b.load_global(c.rhs_global);
    auto stats = bs.solve(comm, b, x);
    series.push_back({name, stats.residual_history});
    if (!stats.converged)
      std::cout << "warning: " << name << " did not converge\n";
  }

  std::size_t rows = 0;
  for (const auto& s : series) rows = std::max(rows, s.history.size());
  std::vector<std::string> headers = {"iteration"};
  for (const auto& s : series) headers.push_back(s.name);
  util::Table t(headers);
  for (std::size_t r = 0; r < rows; ++r) {
    auto& row = t.row();
    row.add_int(static_cast<long>((r + 1) * 10));
    for (const auto& s : series) {
      if (r < s.history.size()) {
        std::ostringstream os;
        os.precision(1);
        os << std::scientific << s.history[r].second;
        row.add(os.str());
      } else {
        row.add("(done)");
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nShape check: EVP curves terminate in roughly a third "
               "of the iterations;\npcsi contracts linearly at the "
               "Chebyshev rate.\n";
  return 0;
}
