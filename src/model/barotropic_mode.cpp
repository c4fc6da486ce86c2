#include "src/model/barotropic_mode.hpp"

#include <cmath>

#include "src/solver/field_ops.hpp"
#include "src/util/error.hpp"
#include "src/util/log.hpp"

namespace minipop::model {

BarotropicMode::BarotropicMode(comm::Communicator& comm,
                               const comm::HaloExchanger& halo,
                               const grid::CurvilinearGrid& grid,
                               const util::Field& depth,
                               const grid::Decomposition& decomp,
                               const Geometry& geometry,
                               const ModelConfig& config)
    : halo_(&halo),
      geometry_(&geometry),
      cfg_(config),
      phi_(1.0 / (config.gravity * config.theta * config.theta * config.dt *
                  config.dt)),
      u_(decomp, comm.rank()),
      v_(decomp, comm.rank()),
      eta_(decomp, comm.rank()),
      ustar_(decomp, comm.rank()),
      vstar_(decomp, comm.rank()),
      rhs_(decomp, comm.rank()),
      cx_halo_(decomp, comm.rank()),
      cy_halo_(decomp, comm.rank()) {
  MINIPOP_REQUIRE(config.theta > 0.5 && config.theta <= 1.0,
                  "theta=" << config.theta);
  MINIPOP_REQUIRE(config.dt > 0, "dt=" << config.dt);
  forcing_.tau0 = config.wind_tau0;
  forcing_.seasonal = config.wind_seasonal;
  forcing_.t_equator = config.t_equator;
  forcing_.t_pole = config.t_pole;
  forcing_.t_seasonal = config.t_seasonal;

  stencil_ = std::make_unique<grid::NinePointStencil>(grid, depth, phi_);
  solver_ = std::make_unique<solver::BarotropicSolver>(
      comm, halo, grid, depth, *stencil_, decomp, config.solver);

  // Corner flux coefficients (see class comment), halo-filled once.
  for (int lb = 0; lb < cx_halo_.num_local_blocks(); ++lb) {
    const auto& geo = geometry.block(lb);
    const auto& info = cx_halo_.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        if (!geo.mask_u(i, j)) continue;
        cx_halo_.at(lb, i, j) = 0.5 * geo.hu(i, j) * geo.dyu(i, j);
        cy_halo_.at(lb, i, j) = 0.5 * geo.hu(i, j) * geo.dxu(i, j);
      }
  }
  halo.exchange(comm, cx_halo_);
  halo.exchange(comm, cy_halo_);
}

solver::SolveStats BarotropicMode::step(comm::Communicator& comm,
                                        double yearday) {
  step_begin(comm, yearday);
  // eta's halo was refreshed in step_begin and its interior only read
  // since, so attest freshness: the solver's first residual skips one
  // exchange.
  auto stats =
      solver_->solve(comm, rhs_, eta_, comm::HaloFreshness::kFresh);
  step_finish(comm, stats);
  return stats;
}

void BarotropicMode::step_begin(comm::Communicator& comm, double yearday) {
  const double dt = cfg_.dt;
  const double g = cfg_.gravity;
  const double theta = cfg_.theta;
  const double nu = cfg_.viscosity;
  const double drag = cfg_.bottom_drag;
  const int nb = u_.num_local_blocks();

  // Halos of u_, v_, eta_ are fresh at entry (ctor zeros, step exit
  // exchanges) — but refresh eta to be robust against external edits.
  halo_->exchange(comm, eta_);

  // --- Momentum predictor at corners -----------------------------------
  for (int lb = 0; lb < nb; ++lb) {
    const auto& geo = geometry_->block(lb);
    const auto& info = u_.info(lb);
    for (int j = 0; j < info.ny; ++j) {
      for (int i = 0; i < info.nx; ++i) {
        if (!geo.mask_u(i, j)) {
          ustar_.at(lb, i, j) = 0.0;
          vstar_.at(lb, i, j) = 0.0;
          continue;
        }
        const double dx = geo.dxu(i, j);
        const double dy = geo.dyu(i, j);
        const double uc = u_.at(lb, i, j);
        const double vc = v_.at(lb, i, j);
        const double ue = u_.at(lb, i + 1, j), uw = u_.at(lb, i - 1, j);
        const double un = u_.at(lb, i, j + 1), us = u_.at(lb, i, j - 1);
        const double ve = v_.at(lb, i + 1, j), vw = v_.at(lb, i - 1, j);
        const double vn = v_.at(lb, i, j + 1), vs = v_.at(lb, i, j - 1);

        // First-order upwind advection on the corner lattice (land
        // corners carry zero velocity: no-slip).
        const double dudx = uc > 0 ? (uc - uw) / dx : (ue - uc) / dx;
        const double dudy = vc > 0 ? (uc - us) / dy : (un - uc) / dy;
        const double dvdx = uc > 0 ? (vc - vw) / dx : (ve - vc) / dx;
        const double dvdy = vc > 0 ? (vc - vs) / dy : (vn - vc) / dy;

        // Corner-centered surface slope (the gradient adjoint to the
        // elliptic stencil). All four cells are ocean when mask_u holds.
        const double detadx =
            (eta_.at(lb, i + 1, j) + eta_.at(lb, i + 1, j + 1) -
             eta_.at(lb, i, j) - eta_.at(lb, i, j + 1)) /
            (2.0 * dx);
        const double detady =
            (eta_.at(lb, i, j + 1) + eta_.at(lb, i + 1, j + 1) -
             eta_.at(lb, i, j) - eta_.at(lb, i + 1, j)) /
            (2.0 * dy);

        const double lap_u =
            (ue - 2 * uc + uw) / (dx * dx) + (un - 2 * uc + us) / (dy * dy);
        const double lap_v =
            (ve - 2 * vc + vw) / (dx * dx) + (vn - 2 * vc + vs) / (dy * dy);

        const double wind =
            forcing_.wind_stress_x(geo.lat_u(i, j), yearday) /
            (cfg_.rho0 * geo.hu(i, j));

        const double ru = -(uc * dudx + vc * dudy) -
                          g * (1 - theta) * detadx + nu * lap_u + wind -
                          drag * uc;
        const double rv = -(uc * dvdx + vc * dvdy) -
                          g * (1 - theta) * detady + nu * lap_v - drag * vc;

        // Semi-implicit Coriolis (exact rotation; f dt > 1 here).
        const double fdt = geo.fu(i, j) * dt;
        const double denom = 1.0 + fdt * fdt;
        const double au = uc + dt * ru;
        const double av = vc + dt * rv;
        ustar_.at(lb, i, j) = (au + fdt * av) / denom;
        vstar_.at(lb, i, j) = (av - fdt * au) / denom;
      }
    }
  }

  halo_->exchange(comm, ustar_);
  halo_->exchange(comm, vstar_);

  // --- Elliptic right-hand side at cells --------------------------------
  // S(u)_cell = sum over the cell's 4 corners of (sgx cx u + sgy cy v),
  // which equals -area * div(H u) for the adjoint divergence.
  auto s_cell = [&](int lb, int i, int j, const comm::DistField& uu,
                    const comm::DistField& vv) {
    // corner (i, j): cell is its SW neighbor -> gx -, gy -
    // corner (i-1, j): cell is SE -> gx +, gy -
    // corner (i, j-1): cell is NW -> gx -, gy +
    // corner (i-1, j-1): cell is NE -> gx +, gy +
    return -cx_halo_.at(lb, i, j) * uu.at(lb, i, j) -
           cy_halo_.at(lb, i, j) * vv.at(lb, i, j) +
           cx_halo_.at(lb, i - 1, j) * uu.at(lb, i - 1, j) -
           cy_halo_.at(lb, i - 1, j) * vv.at(lb, i - 1, j) -
           cx_halo_.at(lb, i, j - 1) * uu.at(lb, i, j - 1) +
           cy_halo_.at(lb, i, j - 1) * vv.at(lb, i, j - 1) +
           cx_halo_.at(lb, i - 1, j - 1) * uu.at(lb, i - 1, j - 1) +
           cy_halo_.at(lb, i - 1, j - 1) * vv.at(lb, i - 1, j - 1);
  };
  for (int lb = 0; lb < nb; ++lb) {
    const auto& geo = geometry_->block(lb);
    const auto& info = eta_.info(lb);
    for (int j = 0; j < info.ny; ++j) {
      for (int i = 0; i < info.nx; ++i) {
        if (!geo.mask(i, j)) {
          rhs_.at(lb, i, j) = 0.0;
          continue;
        }
        rhs_.at(lb, i, j) =
            phi_ * geo.area(i, j) * eta_.at(lb, i, j) +
            phi_ * dt *
                (theta * s_cell(lb, i, j, ustar_, vstar_) +
                 (1 - theta) * s_cell(lb, i, j, u_, v_));
      }
    }
  }

}

void BarotropicMode::step_finish(comm::Communicator& comm,
                                 const solver::SolveStats& stats) {
  const double dt = cfg_.dt;
  const double theta = cfg_.theta;
  const int nb = u_.num_local_blocks();

  ++total_solves_;
  total_iterations_ += stats.iterations;
  if (!stats.converged) {
    // A non-converged free-surface solve must never pass silently: eta
    // is about to feed the velocity correction and the tracer fields.
    ++solver_failures_;
    last_failure_ = stats.failure;
    if (comm.rank() == 0)
      MINIPOP_WARN("barotropic solve " << total_solves_ << " failed ("
                                       << solver::to_string(stats.failure)
                                       << ") after " << stats.iterations
                                       << " iterations, relative residual "
                                       << stats.relative_residual);
  }

  // --- Velocity correction at corners -----------------------------------
  halo_->exchange(comm, eta_);
  for (int lb = 0; lb < nb; ++lb) {
    const auto& geo = geometry_->block(lb);
    const auto& info = u_.info(lb);
    for (int j = 0; j < info.ny; ++j) {
      for (int i = 0; i < info.nx; ++i) {
        if (!geo.mask_u(i, j)) {
          u_.at(lb, i, j) = 0.0;
          v_.at(lb, i, j) = 0.0;
          continue;
        }
        const double detadx =
            (eta_.at(lb, i + 1, j) + eta_.at(lb, i + 1, j + 1) -
             eta_.at(lb, i, j) - eta_.at(lb, i, j + 1)) /
            (2.0 * geo.dxu(i, j));
        const double detady =
            (eta_.at(lb, i, j + 1) + eta_.at(lb, i + 1, j + 1) -
             eta_.at(lb, i, j) - eta_.at(lb, i + 1, j)) /
            (2.0 * geo.dyu(i, j));
        u_.at(lb, i, j) =
            ustar_.at(lb, i, j) - cfg_.gravity * theta * dt * detadx;
        v_.at(lb, i, j) =
            vstar_.at(lb, i, j) - cfg_.gravity * theta * dt * detady;
      }
    }
  }

  // Leave all prognostic halos fresh (the tracer reads u/v halos).
  halo_->exchange(comm, u_);
  halo_->exchange(comm, v_);
}

}  // namespace minipop::model
