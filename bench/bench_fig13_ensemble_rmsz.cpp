// Paper Fig. 13: the ensemble-based RMSZ consistency test (Sec. 6).
// A reference ensemble of runs differing only by O(1e-14) initial
// temperature perturbations defines the natural variability; a candidate
// run's RMSZ against the ensemble reveals whether it is climate-
// consistent. The paper's findings to reproduce:
//   * loose tolerances (1e-10, 1e-11) score visibly ABOVE the ensemble
//     band — unlike the RMSE test, RMSZ detects them;
//   * the default/strict tolerances stay inside the band;
//   * the new P-CSI + block-EVP solver stays inside the band (the
//     result that cleared it for the CESM release).
//
// LIVE experiment; paper-scale is --members=40 --months=12 with a bigger
// --scale. Defaults are workstation-sized.
#include <iostream>

#include "bench_common.hpp"
#include "src/model/ocean_model.hpp"
#include "src/stats/ensemble.hpp"
#include "src/stats/statistics.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  const bench::BenchOptions opts(
      argc, argv, "[--scale=0.08] [--months=4] [--members=12] [--nz=3]");
  const double scale = opts.get_double("scale", 0.08);
  const int months = opts.get_int("months", 4);
  const int members = opts.get_int("members", 12);
  const int nz = opts.get_int("nz", 3);
  opts.finish();

  stats::EnsembleConfig ens_cfg;
  ens_cfg.model.grid = grid::pop_1deg_spec(scale);
  ens_cfg.model.nz = nz;
  ens_cfg.model.block_size = 12;
  ens_cfg.model.nranks = 1;
  ens_cfg.months = months;
  ens_cfg.members = members;
  // Default solver for the ensemble: the production chrongear+diagonal.
  ens_cfg.model.solver.options.rel_tolerance = 1e-13;

  bench::print_header(
      "Figure 13",
      "ensemble RMSZ of monthly temperature (live mini-POP, " +
          std::to_string(members) + " members, " + std::to_string(months) +
          " months, grid " + std::to_string(ens_cfg.model.grid.nx) + "x" +
          std::to_string(ens_cfg.model.grid.ny) + ")");

  std::cout << "running ensemble";
  auto ensemble = stats::run_ensemble(ens_cfg, [](int done, int total) {
    std::cout << "." << std::flush;
    if (done == total) std::cout << "\n";
  });

  comm::SerialComm comm;
  model::OceanModel probe(comm, ens_cfg.model);
  auto mask = grid::ocean_mask(probe.depth());

  // Candidate cases: tolerance variants + the new solver.
  struct Case {
    std::string name;
    double tol;
    bool pcsi_evp;
  };
  const std::vector<Case> cases = {
      {"tol 1e-10", 1e-10, false}, {"tol 1e-11", 1e-11, false},
      {"tol 1e-13 (default)", 1e-13, false},
      {"tol 1e-15", 1e-15, false}, {"pcsi+evp (tol 1e-13)", 1e-13, true}};

  std::vector<stats::MonthlySeries> case_runs;
  for (const auto& cs : cases) {
    std::cout << "running case: " << cs.name << "\n";
    auto cfg = ens_cfg;
    cfg.model.solver.options.rel_tolerance = cs.tol;
    if (cs.pcsi_evp) {
      cfg.model.solver.solver = solver::SolverKind::kPcsi;
      cfg.model.solver.preconditioner =
          solver::PreconditionerKind::kBlockEvp;
    }
    case_runs.push_back(stats::run_member(cfg, /*member=*/-1));
  }

  std::vector<std::string> headers = {"month", "ensemble band"};
  for (const auto& cs : cases) headers.push_back(cs.name);
  util::Table t(headers);
  for (int m = 0; m < months; ++m) {
    auto slice = stats::month_slice(ensemble, m);
    auto moments = stats::ensemble_moments(slice);
    auto [lo, hi] = stats::ensemble_rmsz_range(slice, moments, mask);
    auto& row = t.row();
    row.add_int(m + 1);
    std::ostringstream band;
    band.precision(2);
    band << "[" << lo << ", " << hi << "]";
    row.add(band.str());
    for (const auto& run : case_runs)
      row.add(stats::rmsz(run[m], moments, mask), 2);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (paper Fig. 13): the loose tolerances score above "
         "the ensemble\nband; the default/strict tolerances and the new "
         "pcsi+evp solver stay on the\nband — the solver swap is climate-"
         "consistent.\n";
  return 0;
}
