// Nonlinear barotropic (vertically-integrated) mode with POP's implicit
// free surface on POP's B-grid (paper §1-2; Smith et al. [34]).
//
// Velocities live at cell corners (U-points), the surface height eta at
// cell centers (T-points). The corner gradient G and the cell divergence
// D are exact adjoints, and the elliptic stencil K was assembled as
// K = G^T (H w) G (grid/stencil.hpp), so D H G == K/area *identically* —
// substituting the theta-implicit velocity update
//   u^{n+1} = u* - g theta dt (G eta^{n+1})
// into the theta-weighted continuity equation yields
//   (K + phi area) eta^{n+1} = phi area eta^n
//       + phi dt [theta S(u*) + (1-theta) S(u^n)],
//   phi = 1 / (g theta^2 dt^2),   S(u) = -area div(H u)
// with NO explicit gravity-wave remainder: the free surface is
// unconditionally stable at the Courant-5 barotropic step. (An earlier
// collocated variant left an O(1) short-wave fraction of the gravity
// term explicit and blew up — the adjointness above is load-bearing.)
// This is exactly the elliptic system of paper Eq. 1, solved by the
// configured barotropic solver every time step.
//
// Remaining explicit terms (upwind advection, viscosity, wind, drag) are
// small at this dt; Coriolis uses the exact semi-implicit rotation.
#pragma once

#include <memory>

#include "src/model/config.hpp"
#include "src/model/forcing.hpp"
#include "src/model/geometry.hpp"

namespace minipop::model {

class BarotropicMode {
 public:
  BarotropicMode(comm::Communicator& comm, const comm::HaloExchanger& halo,
                 const grid::CurvilinearGrid& grid, const util::Field& depth,
                 const grid::Decomposition& decomp, const Geometry& geometry,
                 const ModelConfig& config);

  /// Advance one barotropic step at day-of-year `yearday`. Collective.
  /// Returns the elliptic solve statistics. Leaves u/v/eta halos fresh.
  solver::SolveStats step(comm::Communicator& comm, double yearday);

  /// Split-phase stepping for the batched ensemble runner (DESIGN.md
  /// §10-§11): step_begin() runs the momentum predictor and the
  /// elliptic RHS assembly, leaving rhs() ready and eta()'s halo fresh
  /// (the solve may attest HaloFreshness::kFresh); the caller then
  /// solves (K + phi area) eta = rhs — possibly batched across several
  /// members' systems, with the full decorator stack (per-member
  /// resilience, overlap) riding along — and hands the stats to
  /// step_finish() for the failure accounting and the velocity
  /// correction.
  /// step() == step_begin() + solver.solve() + step_finish(), bit for
  /// bit.
  void step_begin(comm::Communicator& comm, double yearday);
  void step_finish(comm::Communicator& comm,
                   const solver::SolveStats& stats);

  /// The elliptic right-hand side assembled by step_begin(), solved in
  /// place against eta().
  comm::DistField& rhs() { return rhs_; }

  /// Corner (U-point) velocities; corner (i, j) is NE of cell (i, j).
  comm::DistField& u() { return u_; }
  comm::DistField& v() { return v_; }
  comm::DistField& eta() { return eta_; }
  const comm::DistField& u() const { return u_; }
  const comm::DistField& v() const { return v_; }
  const comm::DistField& eta() const { return eta_; }

  const grid::NinePointStencil& stencil() const { return *stencil_; }
  solver::BarotropicSolver& solver() { return *solver_; }

  /// Cumulative elliptic-solver iterations / solves since construction.
  long total_iterations() const { return total_iterations_; }
  long total_solves() const { return total_solves_; }
  /// Solves that ended unconverged (each is warned about on rank 0).
  long solver_failures() const { return solver_failures_; }
  /// FailureKind of the most recent unconverged solve (kNone if none).
  solver::FailureKind last_failure() const { return last_failure_; }

 private:
  const comm::HaloExchanger* halo_;
  const Geometry* geometry_;
  ModelConfig cfg_;
  Forcing forcing_;
  double phi_;

  std::unique_ptr<grid::NinePointStencil> stencil_;
  std::unique_ptr<solver::BarotropicSolver> solver_;

  comm::DistField u_, v_, eta_;
  comm::DistField ustar_, vstar_, rhs_;
  /// Corner flux coefficients with valid halos: cx = hu dyu / 2,
  /// cy = hu dxu / 2 (zero at land / nonexistent corners), so that
  /// S(u)_cell = sum over its 4 corners of (+-cx u +- cy v).
  comm::DistField cx_halo_, cy_halo_;

  long total_iterations_ = 0;
  long total_solves_ = 0;
  long solver_failures_ = 0;
  solver::FailureKind last_failure_ = solver::FailureKind::kNone;
};

}  // namespace minipop::model
