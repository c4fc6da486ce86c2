#include "src/perf/pop_timing_model.hpp"

#include <cmath>

#include "src/util/error.hpp"

namespace minipop::perf {

GridCase pop_0p1deg_case() {
  GridCase g;
  g.name = "0.1deg";
  g.points = 3600L * 2400L;
  g.steps_per_day = 500;  // dt_count = 500 (paper §5.2)
  g.baroclinic_ops_per_point = 24600.0;  // ~62 vertical levels
  g.baroclinic_halos_per_step = 40.0;
  return g;
}

GridCase pop_1deg_case() {
  GridCase g;
  g.name = "1deg";
  g.points = 320L * 384L;
  g.steps_per_day = 45;
  // Calibrated so that Table 1's improvements come out (the 1 degree
  // production case carries extra tracer work, §5.1).
  g.baroclinic_ops_per_point = 31500.0;
  g.baroclinic_halos_per_step = 60.0;
  return g;
}

double IterationModel::of(Config c, long points, int p) const {
  const double diag = is_pcsi(c) ? pcsi_diag : cg_diag;
  if (!is_evp(c)) return diag;
  const double cells_per_rank = static_cast<double>(points) / p;
  const double quality =
      cells_per_rank / (cells_per_rank + evp_half_cells);
  return diag * (1.0 - evp_improvement * quality);
}

IterationModel paper_iteration_model(const GridCase& grid) {
  // Fitted against the paper's timing anchors; see EXPERIMENTS.md.
  if (grid.points > 1000000L) {
    return IterationModel{88.0, 107.0};  // 0.1 degree
  }
  return IterationModel{81.0, 212.0};  // 1 degree (larger aspect ratios)
}

PopTimingModel::PopTimingModel(MachineProfile machine, GridCase grid,
                               IterationModel iterations)
    : machine_(std::move(machine)),
      grid_(std::move(grid)),
      iterations_(iterations) {
  MINIPOP_REQUIRE(iterations.cg_diag > 0 && iterations.pcsi_diag > 0,
                  "iteration counts must be positive");
}

double PopTimingModel::iterations_of(Config c, int p) const {
  return iterations_.of(c, grid_.points, p);
}

IterationCosts PopTimingModel::barotropic_per_day(Config c, int p) const {
  IterationCosts per_iter = iteration_costs(machine_, c, grid_.points, p,
                                            grid_.check_frequency);
  const double iters_per_day = iterations_of(c, p) * grid_.steps_per_day;
  return IterationCosts{per_iter.computation * iters_per_day,
                        per_iter.halo * iters_per_day,
                        per_iter.reduction * iters_per_day};
}

double PopTimingModel::baroclinic_per_day(int p) const {
  const double pts_per_rank = static_cast<double>(grid_.points) / p;
  const double per_step =
      grid_.baroclinic_ops_per_point * pts_per_rank * machine_.theta +
      grid_.baroclinic_halos_per_step *
          (4.0 * machine_.alpha_p2p +
           8.0 * std::sqrt(static_cast<double>(grid_.points)) /
               std::sqrt(p) * 8.0 * machine_.beta);
  return per_step * grid_.steps_per_day;
}

double PopTimingModel::total_per_day(Config c, int p) const {
  return barotropic_per_day(c, p).total() + baroclinic_per_day(p);
}

double PopTimingModel::simulated_years_per_day(Config c, int p) const {
  return 86400.0 / (365.0 * total_per_day(c, p));
}

double PopTimingModel::barotropic_fraction(Config c, int p) const {
  return barotropic_per_day(c, p).total() / total_per_day(c, p);
}

double PopTimingModel::improvement_vs_baseline(Config c, int p) const {
  const double base = total_per_day(Config::kCgDiag, p);
  return (base - total_per_day(c, p)) / base;
}

}  // namespace minipop::perf
