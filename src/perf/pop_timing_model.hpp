// Whole-POP timing model: barotropic solver (from the cost equations and
// iteration counts) + a calibrated baroclinic/rest-of-model cost, giving
// per-simulated-day times, component fractions (Figs. 1/9), communication
// breakdowns (Figs. 2/10), scaling curves (Figs. 7/8/11), total-time
// improvements (Table 1) and simulation rates (Figs. 8/11 right).
#pragma once

#include "src/perf/cost_equations.hpp"

namespace minipop::perf {

/// A production grid case for the model.
struct GridCase {
  std::string name;
  long points;            ///< total horizontal grid points (N^2)
  int steps_per_day;      ///< barotropic solves per simulated day
  /// Calibrated cost of everything that is not the barotropic solver
  /// (baroclinic dynamics, thermodynamics, coupling), in paper-ops per
  /// horizontal point per step — POP's 3D work dwarfs the 2D solver's.
  double baroclinic_ops_per_point;
  /// Halo exchanges per step outside the solver (baroclinic 3D fields).
  double baroclinic_halos_per_step;
  int check_frequency = 10;
};

GridCase pop_0p1deg_case();  ///< 3600x2400, 500 steps/day (paper §5.2)
GridCase pop_1deg_case();    ///< 320x384, 45 steps/day

/// Average solver iterations per solve.
///
/// Diagonal-preconditioned counts are core-count independent (paper
/// §2.2). The block-EVP counts are NOT: a block-diagonal preconditioner
/// weakens as blocks shrink, so its iteration savings fade at very high
/// core counts. This is what reconciles the paper's Fig. 6 (EVP cuts
/// iterations to ~1/3, measured at moderate block sizes) with its Fig. 8
/// (ChronGear+EVP is only 1.4x faster at 16,875 cores even though both
/// variants pay one reduction per iteration). We model the savings as
///   K_evp(p) = K_diag * (1 - evp_improvement * q(p)),
///   q(p) = cells_per_rank / (cells_per_rank + evp_half_cells),
/// which reproduces both figures; bench_fig06 measures the large-block
/// ratios live from this repository's solvers.
struct IterationModel {
  double cg_diag;
  double pcsi_diag;
  /// Fraction of iterations EVP removes at large blocks (Fig. 6: ~2/3).
  double evp_improvement = 2.0 / 3.0;
  /// Block size (cells/rank) at which EVP delivers half its improvement.
  double evp_half_cells = 250.0;

  double of(Config c, long points, int p) const;
};

/// Defaults calibrated against the paper's timing anchors (Figs. 7, 8,
/// 11, Table 1 — see EXPERIMENTS.md for the fit).
IterationModel paper_iteration_model(const GridCase& grid);

class PopTimingModel {
 public:
  PopTimingModel(MachineProfile machine, GridCase grid,
                 IterationModel iterations);

  const MachineProfile& machine() const { return machine_; }
  const GridCase& grid() const { return grid_; }
  const IterationModel& iterations() const { return iterations_; }

  /// Effective iterations per solve at p ranks.
  double iterations_of(Config c, int p) const;

  /// Barotropic-mode cost for one simulated day on p ranks, split into
  /// the paper's three components.
  IterationCosts barotropic_per_day(Config c, int p) const;

  /// Everything else (baroclinic + coupling) per simulated day.
  double baroclinic_per_day(int p) const;

  double total_per_day(Config c, int p) const;

  /// Core simulation rate in simulated years per wall-clock day
  /// (365-day years, initialization/IO excluded — paper §5.2).
  double simulated_years_per_day(Config c, int p) const;

  /// Fraction of total time spent in the barotropic mode (Figs. 1/9).
  double barotropic_fraction(Config c, int p) const;

  /// Percent improvement of total time vs. the cg+diagonal baseline
  /// (Table 1).
  double improvement_vs_baseline(Config c, int p) const;

 private:
  MachineProfile machine_;
  GridCase grid_;
  IterationModel iterations_;
};

}  // namespace minipop::perf
