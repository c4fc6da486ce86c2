// Ensemble runner for the paper's §6 methodology: many mini-POP runs
// that are identical except for an O(1e-14) perturbation of the initial
// temperature; the spread of their monthly temperature fields is the
// baseline natural variability against which a modified solver (or a
// loosened tolerance) is judged via RMSZ.
#pragma once

#include <functional>
#include <vector>

#include "src/model/config.hpp"
#include "src/util/array3d.hpp"

namespace minipop::stats {

struct EnsembleConfig {
  /// Per-member model configuration. nranks == 1 runs each member
  /// serially (the paper's setup); nranks > 1 runs each member on a
  /// ThreadComm team of that many ranks. A threaded member computes the
  /// same physics but is NOT bitwise identical to its serial twin: the
  /// solver's global reductions combine partial sums in decomposition
  /// order, so a different rank count reassociates the floating-point
  /// sums (round-off-level differences, same as real MPI).
  model::ModelConfig model;
  int members = 40;           ///< paper: 40
  int months = 12;            ///< paper: 12-month runs
  double perturbation = 1e-14;
  std::uint64_t seed0 = 1000;
  /// Solve this many members' elliptic systems as one batched multi-RHS
  /// solve per time step (Fig-13 workload batching; DESIGN.md §10-§11).
  /// 1 = scalar solves (the historical path). Requires nranks == 1:
  /// batching composes members ACROSS models on one rank, while
  /// nranks > 1 splits one model across ranks — combining the two would
  /// need per-rank model groups, which nothing here needs yet. The
  /// batched stack carries the full decorator chain (resilience with
  /// per-member recovery), so any SolverConfig composes with batch > 1. Batched members are bitwise identical to batch == 1
  /// members: P-CSI/ChronGear batched solves are bit-exact per member
  /// and the resilience decorator is bitwise-neutral in fault-free
  /// runs.
  int batch = 1;
};

/// Monthly mean temperature fields of one run, oldest month first.
using MonthlySeries = std::vector<util::Array3D<double>>;

/// Run one (optionally perturbed) simulation and return its monthly
/// series. `member` < 0 means unperturbed. With config.model.nranks > 1
/// the member runs on a ThreadComm team and the per-rank partial
/// monthly means (each rank records its owned cells, zeros elsewhere)
/// are summed into the full field.
MonthlySeries run_member(const EnsembleConfig& config, int member);

/// Run the whole ensemble (members 0..members-1). `progress` (may be
/// null) is called after each member completes. With config.batch > 1
/// members advance in lockstep groups whose elliptic solves are batched
/// into multi-RHS solves (one aggregated halo message per neighbor and
/// one vector allreduce per reduction point for the whole group).
std::vector<MonthlySeries> run_ensemble(
    const EnsembleConfig& config,
    const std::function<void(int done, int total)>& progress = nullptr);

/// Extract the fields of month `m` (0-based) from every member.
std::vector<util::Array3D<double>> month_slice(
    const std::vector<MonthlySeries>& ensemble, int month);

}  // namespace minipop::stats
