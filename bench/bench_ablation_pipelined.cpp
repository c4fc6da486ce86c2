// Extension ablation: pipelined CG (Ghysels & Vanroose, the paper's
// ref [16]) against ChronGear and P-CSI at scale — and, since the
// split-phase engine landed, a MEASURED overlapped-vs-blocking solve on
// a live multi-rank ThreadTeam problem.
//
// Part 1 (analytic): pipelining HIDES the reduction latency behind the
// matvec + preconditioner instead of removing reductions: per iteration,
//   T_pipe = max(T_reduction, T_comp + T_precond) + T_halo
// versus ChronGear's sum. The model shows why the paper chose the
// Chebyshev route for POP: once reductions cost more than a matvec,
// overlap can at best hide the smaller of the two, while P-CSI's rarer
// checks remove ~90% of the reduction bill outright. Pipelined CG is
// modeled only: there is no live pipelined solver to measure.
//
// Part 2 (measured): ChronGear+EVP and P-CSI+EVP run blocking and
// overlapped (SolverOptions::overlap) on a 4-rank ThreadTeam; the
// CostTracker's posted/exposed split quantifies how much communication
// the interior/rim overlap actually hid. Iteration counts and residuals
// are bitwise identical between the modes — the bench checks this.
// Writes BENCH_overlap.json (run from the repo root):
//
//   ./build/bench/bench_ablation_pipelined [output.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/solver/lanczos.hpp"

using namespace minipop;

namespace {

struct ModelRow {
  int cores;
  double chrongear_diag;
  double pipecg_overlapped;
  double pcsi_evp;
};

struct MeasuredSolve {
  std::string solver;
  std::string mode;  ///< "blocking" or "overlap"
  double seconds = 0;
  int iterations = 0;
  double rel_residual = 0;
  comm::CostCounters costs;  ///< summed over ranks (counts: rank 0)
};

/// Run `solves` warm solves of `make_solver()`'s solver on a ThreadTeam
/// and return the best-of-repeats wall time plus rank-summed counters.
template <typename MakeSolver>
MeasuredSolve run_team_solve(const std::string& name, const std::string& mode,
                             const grid::NinePointStencil& stencil,
                             const grid::CurvilinearGrid& grid,
                             const util::Field& depth,
                             const grid::Decomposition& decomp,
                             const util::Field& rhs_global, int nranks,
                             const evp::BlockEvpOptions& evp_opt,
                             MakeSolver&& make_solver, int repeats = 3) {
  MeasuredSolve out;
  out.solver = name;
  out.mode = mode;
  comm::HaloExchanger halo(decomp);
  std::vector<double> rank_seconds(nranks, 0.0);
  std::vector<comm::CostCounters> rank_costs(nranks);
  std::vector<solver::SolveStats> rank_stats(nranks);

  comm::ThreadTeam team(nranks);
  team.run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    solver::DistOperator a(stencil, decomp, rank);
    evp::BlockEvpPreconditioner m(a, grid, depth, evp_opt);
    auto solver = make_solver();
    comm::DistField b(decomp, rank), x(decomp, rank);
    b.load_global(rhs_global);

    double best = 0.0;
    solver::SolveStats stats;
    for (int rep = 0; rep < repeats; ++rep) {
      x.fill(0.0);
      comm.barrier();
      const auto snapshot = comm.costs().counters();
      const auto t0 = std::chrono::steady_clock::now();
      stats = solver::solve_one(*solver, comm, halo, a, m, b, x);
      comm.barrier();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      if (rep == 0 || secs < best) {
        best = secs;
        rank_costs[rank] = comm.costs().since(snapshot);
      }
    }
    rank_seconds[rank] = best;
    rank_stats[rank] = stats;
  });

  // Wall time: slowest rank. Seconds-type counters: summed over ranks
  // (total posted/exposed communication). Count-type counters: rank 0
  // (collective call counts agree across ranks).
  out.seconds = *std::max_element(rank_seconds.begin(), rank_seconds.end());
  out.costs = rank_costs[0];
  for (int r = 1; r < nranks; ++r) {
    out.costs.posted_comm_seconds += rank_costs[r].posted_comm_seconds;
    out.costs.exposed_comm_seconds += rank_costs[r].exposed_comm_seconds;
  }
  out.iterations = rank_stats[0].iterations;
  out.rel_residual = rank_stats[0].relative_residual;
  return out;
}

bool write_json(const std::string& path, int nx, int ny, int nranks,
                const std::vector<MeasuredSolve>& solves,
                const std::vector<ModelRow>& model) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n"
     << "  \"bench\": \"overlap\",\n"
     << "  \"grid\": {\"nx\": " << nx << ", \"ny\": " << ny
     << ", \"ranks\": " << nranks << "},\n"
     << "  \"solves\": [\n";
  for (std::size_t k = 0; k < solves.size(); ++k) {
    const auto& s = solves[k];
    const auto acct = perf::overlap_accounting(s.costs);
    os << "    {\"solver\": \"" << s.solver << "\", \"mode\": \"" << s.mode
       << "\", \"seconds\": " << s.seconds
       << ", \"iterations\": " << s.iterations
       << ", \"relative_residual\": " << s.rel_residual
       << ", \"posted_comm_seconds\": " << acct.posted_seconds
       << ", \"exposed_comm_seconds\": " << acct.exposed_seconds
       << ", \"hidden_fraction\": " << acct.hidden_fraction()
       << ", \"requests\": " << s.costs.requests
       << ", \"halo_exchanges\": " << s.costs.halo_exchanges
       << ", \"allreduces\": " << s.costs.allreduces << "}"
       << (k + 1 < solves.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"model_seconds_per_day\": [\n";
  for (std::size_t k = 0; k < model.size(); ++k) {
    const auto& r = model[k];
    os << "    {\"cores\": " << r.cores
       << ", \"chrongear_diag\": " << r.chrongear_diag
       << ", \"pipecg_diag_overlapped\": " << r.pipecg_overlapped
       << ", \"pcsi_evp\": " << r.pcsi_evp << "}"
       << (k + 1 < model.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.flush();
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::parse_bench_args(argc, argv, "BENCH_overlap.json", false)
          .json_path;
  auto grid = perf::pop_0p1deg_case();
  auto machine = perf::yellowstone_profile();
  perf::PopTimingModel model(machine, grid,
                             perf::paper_iteration_model(grid));

  bench::print_header("Ablation: pipelined CG",
                      "modeled 0.1deg barotropic seconds/day on "
                      "Yellowstone — overlap vs removal of reductions");

  std::vector<ModelRow> model_rows;
  util::Table t({"cores", "chrongear+diag", "pipecg+diag (overlapped)",
                 "pcsi+evp"});
  for (int p : {470, 1125, 2700, 5400, 10800, 16875}) {
    // ChronGear: straight sum of the Eq. 2 components.
    auto cg = perf::iteration_costs(machine, perf::Config::kCgDiag,
                                    grid.points, p, grid.check_frequency);
    const double k_cg =
        model.iterations_of(perf::Config::kCgDiag, p);
    // Pipelined CG: same Krylov iteration count, same reduction, but the
    // reduction overlaps the computation; extra vector work (4 more
    // axpys = 8 ops/pt) is exposed.
    const double pts = static_cast<double>(grid.points) / p;
    const double comp = (perf::compute_ops_per_point(perf::Config::kCgDiag)
                         + 8.0) * pts * machine.theta;
    const double overlapped =
        std::max(cg.reduction, comp) + cg.halo;
    auto pe = model.barotropic_per_day(perf::Config::kPcsiEvp, p);
    ModelRow row;
    row.cores = p;
    row.chrongear_diag =
        model.barotropic_per_day(perf::Config::kCgDiag, p).total();
    row.pipecg_overlapped = overlapped * k_cg * grid.steps_per_day;
    row.pcsi_evp = pe.total();
    model_rows.push_back(row);
    t.row()
        .add_int(p)
        .add(row.chrongear_diag, 2)
        .add(row.pipecg_overlapped, 2)
        .add(row.pcsi_evp, 2);
  }
  t.print(std::cout);
  std::cout << "\nShape check: pipelining helps exactly while the "
               "reduction still fits under the\nmatvec (low/mid core "
               "counts) and saturates once reductions dominate; P-CSI\n"
               "keeps winning at scale because its reductions are rare, "
               "not merely hidden\n(paper Sec. 7's rationale for "
               "abandoning the CG family).\n";

  // --- Part 2: measured split-phase overlap on a live problem ----------
  bench::print_header("Measured overlap",
                      "blocking vs split-phase solves, 4-rank ThreadTeam, "
                      "posted/exposed comm split");
  const int nranks = 4;
  bench::LiveCase c = bench::make_live_case("1deg", 0.5, 48);
  const int nx = c.grid->nx(), ny = c.grid->ny();
  grid::Decomposition decomp(nx, ny, c.grid->periodic_x(),
                             c.stencil->mask(), 48, 48, nranks);

  solver::SolverOptions base_opt;
  base_opt.rel_tolerance = 1e-10;
  evp::BlockEvpOptions evp_opt;

  // P-CSI eigenvalue bounds: computed once, serially, shared by both
  // modes (Lanczos is part of setup, not the solve being measured).
  solver::EigenBounds bounds;
  {
    grid::Decomposition d1(nx, ny, c.grid->periodic_x(),
                           c.stencil->mask(), nx, ny, 1);
    comm::SerialComm comm;
    comm::HaloExchanger halo(d1);
    solver::DistOperator a(*c.stencil, d1, 0);
    evp::BlockEvpPreconditioner m(a, *c.grid, c.depth, evp_opt);
    solver::LanczosOptions lopt;
    bounds = solver::estimate_eigenvalue_bounds(comm, halo, a, m, lopt)
                 .bounds;
  }

  std::vector<MeasuredSolve> solves;
  for (bool overlap : {false, true}) {
    solver::SolverOptions opt = base_opt;
    opt.overlap = overlap;
    const std::string mode = overlap ? "overlap" : "blocking";
    solves.push_back(run_team_solve(
        "chrongear+evp", mode, *c.stencil, *c.grid, c.depth, decomp,
        c.rhs_global, nranks, evp_opt,
        [&] { return std::make_unique<solver::BatchedChronGearSolver>(opt); }));
    solves.push_back(run_team_solve(
        "pcsi+evp", mode, *c.stencil, *c.grid, c.depth, decomp,
        c.rhs_global, nranks, evp_opt,
        [&] {
          return std::make_unique<solver::BatchedPcsiSolver>(bounds, opt);
        }));
  }

  std::printf("%-16s %-9s %9s %6s %12s %12s %8s\n", "solver", "mode",
              "ms/solve", "iters", "posted ms", "exposed ms", "hidden");
  for (const auto& s : solves) {
    const auto acct = perf::overlap_accounting(s.costs);
    std::printf("%-16s %-9s %9.2f %6d %12.3f %12.3f %7.1f%%\n",
                s.solver.c_str(), s.mode.c_str(), s.seconds * 1e3,
                s.iterations, acct.posted_seconds * 1e3,
                acct.exposed_seconds * 1e3, 100.0 * acct.hidden_fraction());
  }

  // The engine's contract: overlap changes WHEN communication happens,
  // never WHAT is computed.
  bool identical = true;
  for (const auto& s : solves) {
    for (const auto& o : solves) {
      if (s.solver == o.solver && s.mode != o.mode &&
          (s.iterations != o.iterations ||
           s.rel_residual != o.rel_residual))
        identical = false;
    }
  }
  std::printf("\nbitwise identity (iterations + final residual): %s\n",
              identical ? "OK" : "VIOLATED");

  if (!write_json(json_path, nx, ny, nranks, solves, model_rows)) {
    std::fprintf(stderr, "\nerror: could not write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return identical ? 0 : 1;
}
