// Shared plumbing for the figure/table benchmarks: live solver cases on
// scaled production grids, iteration-count measurement, and consistent
// headers. Every bench prints the paper row/series it reproduces; see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-
// measured numbers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/model/config.hpp"
#include "src/perf/pop_timing_model.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace minipop::bench {

/// A fully-assembled standalone elliptic problem on a scaled production
/// grid (serial, one rank owning block-decomposed tiles, like POP at a
/// given block size).
struct LiveCase {
  std::unique_ptr<grid::CurvilinearGrid> grid;
  util::Field depth;
  std::unique_ptr<grid::NinePointStencil> stencil;
  std::unique_ptr<grid::Decomposition> decomp;
  std::unique_ptr<comm::HaloExchanger> halo;
  util::Field rhs_global;
  double dt = 0.0;
};

/// `which` is "1deg" or "0.1deg"; `scale` shrinks the grid (1.0 = paper
/// size). block_size is the process-block edge used for decomposition
/// (and thus for whole-block EVP preconditioning).
LiveCase make_live_case(const std::string& which, double scale,
                        int block_size, std::uint64_t seed = 2015);

/// Measure average iterations for a solver configuration over `solves`
/// consecutive solves with slightly different right-hand sides (as POP's
/// time stepping produces). Returns (mean iterations, setup lanczos
/// steps if any).
struct LiveSolveResult {
  double mean_iterations = 0;
  bool all_converged = true;
  int lanczos_steps = 0;
  std::uint64_t precond_setup_flops = 0;
  comm::CostCounters costs;  ///< accumulated over all solves
};
LiveSolveResult measure_iterations(LiveCase& c,
                                   const solver::SolverConfig& config,
                                   int solves = 3);

/// Solver configuration for one of the paper's four variants.
solver::SolverConfig config_for(perf::Config c, double rel_tolerance,
                                int evp_max_tile = 0);

/// Standard bench banner.
void print_header(const std::string& experiment, const std::string& what);

/// Command line of a figure/ablation bench: `--name=value` options read
/// through the typed lookups below, then finish(). A malformed value, or
/// an option the bench never looked up (a misspelled flag would
/// otherwise run silently with the defaults), prints the error and
/// "usage: <program> <usage>" to stderr and exits with status 2.
class BenchOptions {
 public:
  BenchOptions(int argc, char** argv, std::string usage);

  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Ends the option parsing; call it after the last lookup.
  void finish() const;

 private:
  util::Cli cli_;
  std::string usage_;
};

/// Command line of the benches with their own main():
/// `[--smoke] [output.json]`.
struct BenchArgs {
  bool smoke = false;
  std::string json_path;
};

/// Parse argv with util::Cli. `has_smoke` says whether the bench has a
/// --smoke mode. An unknown or misspelled option, a malformed value or a
/// second positional prints the usage line and exits 2, so a typo can
/// neither become the output path nor skip a gate.
BenchArgs parse_bench_args(int argc, char** argv,
                           const std::string& default_json, bool has_smoke);

}  // namespace minipop::bench
