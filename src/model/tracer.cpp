#include "src/model/tracer.hpp"

#include <cmath>

#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace minipop::model {

TemperatureTracer::TemperatureTracer(comm::Communicator& comm,
                                     const comm::HaloExchanger& halo,
                                     const grid::Decomposition& decomp,
                                     const Geometry& geometry,
                                     const ModelConfig& config)
    : halo_(&halo),
      geometry_(&geometry),
      cfg_(config),
      depth_halo_(decomp, comm.rank()) {
  MINIPOP_REQUIRE(config.nz >= 1, "nz=" << config.nz);
  forcing_.t_equator = config.t_equator;
  forcing_.t_pole = config.t_pole;
  forcing_.t_seasonal = config.t_seasonal;
  forcing_.tau0 = config.wind_tau0;
  forcing_.seasonal = config.wind_seasonal;

  dz_.resize(config.nz);
  for (int k = 0; k < config.nz; ++k)
    dz_[k] = config.dz0 * std::pow(1.8, k);  // thickening with depth

  levels_.reserve(config.nz);
  scratch_.reserve(config.nz);
  for (int k = 0; k < config.nz; ++k) {
    levels_.emplace_back(decomp, comm.rank());
    scratch_.emplace_back(decomp, comm.rank());
  }
  // Depth with valid halos so land can be recognized across block seams.
  for (int lb = 0; lb < depth_halo_.num_local_blocks(); ++lb) {
    const auto& geo = geometry.block(lb);
    const auto& info = depth_halo_.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        depth_halo_.at(lb, i, j) = geo.depth(i, j);
  }
  halo.exchange(comm, depth_halo_);

  init_profile();
}

double TemperatureTracer::velocity_profile(int k) const {
  // Surface-intensified: ~1.3 at the top tapering toward 0.2 at depth.
  const double frac = nz() > 1 ? static_cast<double>(k) / (nz() - 1) : 0.0;
  return 1.3 - 1.1 * frac * frac;
}

void TemperatureTracer::init_profile() {
  for (int k = 0; k < nz(); ++k) {
    // Depth of the layer center.
    double zc = 0.0;
    for (int kk = 0; kk < k; ++kk) zc += dz_[kk];
    zc += 0.5 * dz_[k];
    const double decay = std::exp(-zc / 800.0);
    for (int lb = 0; lb < levels_[k].num_local_blocks(); ++lb) {
      const auto& geo = geometry_->block(lb);
      const auto& info = levels_[k].info(lb);
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i) {
          if (!geo.mask(i, j)) {
            levels_[k].at(lb, i, j) = 0.0;
            continue;
          }
          const double sst = forcing_.restoring_sst(geo.lat(i, j), 0.0);
          const double deep = 2.0;
          levels_[k].at(lb, i, j) = deep + (sst - deep) * decay;
        }
    }
  }
}

void TemperatureTracer::perturb(double epsilon, std::uint64_t seed) {
  for (int k = 0; k < nz(); ++k) {
    auto& t = levels_[k];
    for (int lb = 0; lb < t.num_local_blocks(); ++lb) {
      const auto& geo = geometry_->block(lb);
      const auto& info = t.info(lb);
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i) {
          if (!geo.mask(i, j)) continue;
          const std::uint64_t cell =
              (static_cast<std::uint64_t>(k) * info.ny + (info.j0 + j)) *
                  100003ULL +
              static_cast<std::uint64_t>(info.i0 + i);
          util::SplitMix64 sm(seed ^ (cell * 0x9e3779b97f4a7c15ULL + 17));
          const double r =
              2.0 * (static_cast<double>(sm.next() >> 11) * 0x1.0p-53) - 1.0;
          t.at(lb, i, j) += epsilon * r;
        }
    }
  }
}

void TemperatureTracer::step(comm::Communicator& comm,
                             const comm::DistField& u,
                             const comm::DistField& v, double yearday) {
  const double dt = cfg_.dt;
  const double kappa = cfg_.kappa;
  const double restore_rate =
      1.0 / (cfg_.restore_days * kSecondsPerDay);
  const double kappa_v = 1.0e-4;  // vertical mixing [m^2/s]

  std::vector<comm::DistFieldBatch*> levels;
  for (auto& t : levels_) levels.push_back(&t);
  halo_->exchange_group(comm, levels);

  for (int k = 0; k < nz(); ++k) {
    const double vp = velocity_profile(k);
    auto& t = levels_[k];
    auto& out = scratch_[k];
    for (int lb = 0; lb < t.num_local_blocks(); ++lb) {
      const auto& geo = geometry_->block(lb);
      const auto& info = t.info(lb);
      for (int j = 0; j < info.ny; ++j) {
        for (int i = 0; i < info.nx; ++i) {
          if (!geo.mask(i, j)) {
            out.at(lb, i, j) = 0.0;
            continue;
          }
          const double dx = geo.dx(i, j);
          const double dy = geo.dy(i, j);
          const double tc = t.at(lb, i, j);
          // Cell-centered velocity: average of the 4 surrounding B-grid
          // corners (zero at land corners, damping coastal flow).
          const double uc =
              vp * 0.25 *
              (u.at(lb, i, j) + u.at(lb, i - 1, j) + u.at(lb, i, j - 1) +
               u.at(lb, i - 1, j - 1));
          const double vc =
              vp * 0.25 *
              (v.at(lb, i, j) + v.at(lb, i - 1, j) + v.at(lb, i, j - 1) +
               v.at(lb, i - 1, j - 1));

          // Neighbor values with no-flux land treatment (use center).
          const bool oce = depth_halo_.at(lb, i + 1, j) > 0;
          const bool ocw = depth_halo_.at(lb, i - 1, j) > 0;
          const bool ocn = depth_halo_.at(lb, i, j + 1) > 0;
          const bool ocs = depth_halo_.at(lb, i, j - 1) > 0;
          const double te = oce ? t.at(lb, i + 1, j) : tc;
          const double tw = ocw ? t.at(lb, i - 1, j) : tc;
          const double tn = ocn ? t.at(lb, i, j + 1) : tc;
          const double ts = ocs ? t.at(lb, i, j - 1) : tc;

          // Upwind advection.
          const double dtdx = uc > 0 ? (tc - tw) / dx : (te - tc) / dx;
          const double dtdy = vc > 0 ? (tc - ts) / dy : (tn - tc) / dy;

          // Masked lateral diffusion (no-flux coasts).
          const double lap = (te - 2 * tc + tw) / (dx * dx) +
                             (tn - 2 * tc + ts) / (dy * dy);

          double tendency = -(uc * dtdx + vc * dtdy) + kappa * lap;

          // Vertical mixing (no-flux top/bottom).
          const double dzk = dz_[k];
          if (k > 0) {
            const double up = levels_[k - 1].at(lb, i, j);
            tendency +=
                kappa_v * (up - tc) / (0.5 * (dz_[k - 1] + dzk) * dzk);
          }
          if (k + 1 < nz()) {
            const double dn = levels_[k + 1].at(lb, i, j);
            tendency +=
                kappa_v * (dn - tc) / (0.5 * (dz_[k + 1] + dzk) * dzk);
          }

          // Surface restoring on the top level.
          if (k == 0) {
            const double sst =
                forcing_.restoring_sst(geo.lat(i, j), yearday);
            tendency += restore_rate * (sst - tc);
          }

          out.at(lb, i, j) = tc + dt * tendency;
        }
      }
    }
  }

  for (int k = 0; k < nz(); ++k)
    std::swap(levels_[k], scratch_[k]);
}

}  // namespace minipop::model
