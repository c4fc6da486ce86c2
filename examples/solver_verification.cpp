// Domain scenario 3: the climate-consistency gate of paper Sec. 6 —
// before a new solver may ship in a CESM release, show that it produces
// an ocean consistent with the reference ensemble. This example runs the
// whole pipeline end to end: build a perturbed reference ensemble, run
// the candidate solver, score it with RMSZ month by month, and emit a
// PASS/FAIL verdict.
//
//   ./solver_verification [--members=10] [--months=3] [--scale=0.08]
//                         [--solver=pcsi] [--precond=evp] [--tol=1e-13]
//
// Try --tol=1e-10 to watch a genuinely inconsistent configuration fail.
// An unknown option or a malformed or out-of-range value exits with
// status 2 and a usage line.
#include <iostream>

#include "src/comm/serial_comm.hpp"
#include "src/model/ocean_model.hpp"
#include "src/stats/ensemble.hpp"
#include "src/stats/statistics.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/table.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);

  stats::EnsembleConfig ens;
  ens.model.block_size = 12;
  ens.model.nranks = 1;
  ens.model.solver.options.rel_tolerance = 1e-13;  // production default
  // Candidate configuration: the reference ensemble's, with the solver
  // under test.
  auto candidate_cfg = ens;
  try {
    ens.model.grid = grid::pop_1deg_spec(cli.get_double("scale", 0.08));
    ens.model.nz = cli.get_int("nz", 3, 1);
    ens.members = cli.get_int("members", 10, 2);
    ens.months = cli.get_int("months", 3, 1);
    candidate_cfg = ens;
    candidate_cfg.model.solver.solver =
        solver::solver_kind_from_string(cli.get("solver", "pcsi"));
    candidate_cfg.model.solver.preconditioner =
        solver::preconditioner_kind_from_string(cli.get("precond", "evp"));
    candidate_cfg.model.solver.options.rel_tolerance =
        cli.get_positive("tol", 1e-13);
    cli.reject_unread();
  } catch (const util::Error& e) {
    return cli.usage_error(
        e, "[--members=10] [--months=3] [--scale=0.08] [--nz=3] "
           "[--solver=pcsi] [--precond=evp] [--tol=1e-13]");
  }

  std::cout << "building the reference ensemble (" << ens.members
            << " members x " << ens.months << " months, O(1e-14) initial "
            << "perturbations)" << std::flush;
  auto ensemble = stats::run_ensemble(ens, [](int done, int total) {
    std::cout << "." << std::flush;
    if (done == total) std::cout << "\n";
  });

  std::cout << "running candidate: "
            << solver::to_string(candidate_cfg.model.solver.solver) << "+"
            << solver::to_string(candidate_cfg.model.solver.preconditioner)
            << " (tol "
            << candidate_cfg.model.solver.options.rel_tolerance << ")\n";
  auto candidate = stats::run_member(candidate_cfg, /*member=*/-1);

  comm::SerialComm comm;
  model::OceanModel probe(comm, ens.model);
  auto mask = grid::ocean_mask(probe.depth());

  // Verdict: the paper accepts a candidate whose RMSZ stays on the order
  // of the ensemble's own spread; flag months scoring beyond 2x the
  // in-ensemble maximum.
  util::Table t({"month", "ensemble RMSZ band", "candidate RMSZ",
                 "verdict"});
  bool pass = true;
  for (int m = 0; m < ens.months; ++m) {
    auto slice = stats::month_slice(ensemble, m);
    auto moments = stats::ensemble_moments(slice);
    auto [lo, hi] = stats::ensemble_rmsz_range(slice, moments, mask);
    const double z = stats::rmsz(candidate[m], moments, mask);
    const bool ok = z <= 2.0 * hi;
    pass = pass && ok;
    std::ostringstream band;
    band.precision(2);
    band << "[" << lo << ", " << hi << "]";
    t.row().add_int(m + 1).add(band.str()).add(z, 2).add(
        ok ? "consistent" : "INCONSISTENT");
  }
  t.print(std::cout);
  std::cout << "\n"
            << (pass ? "PASS: the candidate solver produces an ocean "
                       "climate consistent with the\nreference ensemble "
                       "(paper Sec. 6's criterion for release)."
                     : "FAIL: the candidate is statistically "
                       "distinguishable from the reference\nensemble — "
                       "do not ship it.")
            << "\n";
  return pass ? 0 : 1;
}
