#include "src/model/ocean_model.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "src/util/error.hpp"

namespace minipop::model {

double recommended_barotropic_dt(const grid::CurvilinearGrid& grid,
                                 double gravity, double h_ref,
                                 double courant) {
  const double c = std::sqrt(gravity * h_ref);  // gravity wave speed
  const double dx = std::min(grid.mean_dx(), grid.mean_dy());
  return courant * dx / c;
}

OceanModel::OceanModel(comm::Communicator& comm, const ModelConfig& config)
    : cfg_(config) {
  MINIPOP_REQUIRE(comm.size() == config.nranks,
                  "communicator size " << comm.size() << " != config.nranks "
                                       << config.nranks);
  grid_ = std::make_unique<grid::CurvilinearGrid>(config.grid);
  if (cfg_.dt <= 0.0) cfg_.dt = recommended_barotropic_dt(*grid_);
  depth_ = grid::synthetic_earth_bathymetry(*grid_, config.bathymetry);
  auto mask = grid::ocean_mask(depth_);
  decomp_ = std::make_unique<grid::Decomposition>(
      grid_->nx(), grid_->ny(), grid_->periodic_x(), mask,
      config.block_size,
      config.block_size_y > 0 ? config.block_size_y : config.block_size,
      config.nranks);
  halo_ = std::make_unique<comm::HaloExchanger>(*decomp_);
  // CRC-protect every remote halo message when the integrity layer asks
  // for it — set before ANY exchange so the wire format is uniform.
  halo_->set_crc(config.solver.options.integrity.halo_crc);
  geometry_ = std::make_unique<Geometry>(*grid_, depth_, *decomp_,
                                         comm.rank(), config.omega);
  barotropic_ = std::make_unique<BarotropicMode>(
      comm, *halo_, *grid_, depth_, *decomp_, *geometry_, cfg_);
  tracer_ = std::make_unique<TemperatureTracer>(comm, *halo_, *decomp_,
                                                *geometry_, cfg_);
}

double OceanModel::yearday() const {
  return std::fmod(time_days(), kDaysPerYear);
}

solver::SolveStats OceanModel::step(comm::Communicator& comm) {
  auto stats = barotropic_->step(comm, yearday());
  // The barotropic step leaves u/v halos fresh for the tracer.
  tracer_->step(comm, barotropic_->u(), barotropic_->v(), yearday());
  ++steps_;
  return stats;
}

void OceanModel::step_begin(comm::Communicator& comm) {
  barotropic_->step_begin(comm, yearday());
}

void OceanModel::step_finish(comm::Communicator& comm,
                             const solver::SolveStats& stats) {
  barotropic_->step_finish(comm, stats);
  tracer_->step(comm, barotropic_->u(), barotropic_->v(), yearday());
  ++steps_;
}

void OceanModel::run_days(comm::Communicator& comm, double days) {
  const long n = static_cast<long>(std::llround(days * kSecondsPerDay /
                                                cfg_.dt));
  for (long s = 0; s < n; ++s) step(comm);
}

double OceanModel::mean_temperature(comm::Communicator& comm) const {
  double local[2] = {0.0, 0.0};  // volume-weighted sum, volume
  for (int k = 0; k < tracer_->nz(); ++k) {
    const auto& t = tracer_->level(k);
    const double dz = tracer_->layer_thickness(k);
    for (int lb = 0; lb < t.num_local_blocks(); ++lb) {
      const auto& geo = geometry_->block(lb);
      const auto& info = t.info(lb);
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i) {
          if (!geo.mask(i, j)) continue;
          const double vol = geo.area(i, j) * dz;
          local[0] += t.at(lb, i, j) * vol;
          local[1] += vol;
        }
    }
  }
  comm.allreduce(std::span<double>(local, 2), comm::ReduceOp::kSum);
  return local[1] > 0 ? local[0] / local[1] : 0.0;
}

double OceanModel::mean_ssh(comm::Communicator& comm) const {
  double local[2] = {0.0, 0.0};
  const auto& eta = barotropic_->eta();
  for (int lb = 0; lb < eta.num_local_blocks(); ++lb) {
    const auto& geo = geometry_->block(lb);
    const auto& info = eta.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        if (!geo.mask(i, j)) continue;
        local[0] += eta.at(lb, i, j) * geo.area(i, j);
        local[1] += geo.area(i, j);
      }
  }
  comm.allreduce(std::span<double>(local, 2), comm::ReduceOp::kSum);
  return local[1] > 0 ? local[0] / local[1] : 0.0;
}

double OceanModel::kinetic_energy(comm::Communicator& comm) const {
  double ke = 0.0;
  const auto& u = barotropic_->u();
  const auto& v = barotropic_->v();
  for (int lb = 0; lb < u.num_local_blocks(); ++lb) {
    const auto& geo = geometry_->block(lb);
    const auto& info = u.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        if (!geo.mask_u(i, j)) continue;
        const double uu = u.at(lb, i, j);
        const double vv = v.at(lb, i, j);
        ke += 0.5 * (uu * uu + vv * vv) * geo.dxu(i, j) * geo.dyu(i, j) *
              geo.hu(i, j);
      }
  }
  return comm.allreduce_sum(ke);
}

double OceanModel::max_speed(comm::Communicator& comm) const {
  double m = 0.0;
  const auto& u = barotropic_->u();
  const auto& v = barotropic_->v();
  for (int lb = 0; lb < u.num_local_blocks(); ++lb) {
    const auto& info = u.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        m = std::max(m, std::hypot(u.at(lb, i, j), v.at(lb, i, j)));
  }
  comm.allreduce(std::span<double>(&m, 1), comm::ReduceOp::kMax);
  return m;
}

void OceanModel::gather_temperature(util::Array3D<double>& out) const {
  if (out.nx() != grid_->nx() || out.ny() != grid_->ny() ||
      out.nz() != tracer_->nz())
    out = util::Array3D<double>(grid_->nx(), grid_->ny(), tracer_->nz());
  for (int k = 0; k < tracer_->nz(); ++k) {
    const auto& t = tracer_->level(k);
    for (int lb = 0; lb < t.num_local_blocks(); ++lb) {
      const auto& info = t.info(lb);
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i)
          out(info.i0 + i, info.j0 + j, k) = t.at(lb, i, j);
    }
  }
}

void OceanModel::gather_ssh(util::Field& out) const {
  if (out.nx() != grid_->nx() || out.ny() != grid_->ny())
    out = util::Field(grid_->nx(), grid_->ny(), 0.0);
  barotropic_->eta().store_global(out);
}

void OceanModel::perturb_temperature(double epsilon, std::uint64_t seed) {
  tracer_->perturb(epsilon, seed);
}

namespace {
constexpr std::uint64_t kCheckpointMagic = 0x4d504f5031ULL;  // "MPOP1"

void write_field(std::ostream& os, const util::Field& f) {
  os.write(reinterpret_cast<const char*>(f.data()),
           static_cast<std::streamsize>(f.size() * sizeof(double)));
}

void read_field(std::istream& is, util::Field& f) {
  is.read(reinterpret_cast<char*>(f.data()),
          static_cast<std::streamsize>(f.size() * sizeof(double)));
}
}  // namespace

void OceanModel::save_state(std::ostream& os) const {
  MINIPOP_REQUIRE(cfg_.nranks == 1,
                  "checkpointing is supported for single-rank runs");
  const std::uint64_t header[5] = {
      kCheckpointMagic, static_cast<std::uint64_t>(grid_->nx()),
      static_cast<std::uint64_t>(grid_->ny()),
      static_cast<std::uint64_t>(tracer_->nz()),
      static_cast<std::uint64_t>(steps_)};
  os.write(reinterpret_cast<const char*>(header), sizeof(header));

  util::Field scratch(grid_->nx(), grid_->ny(), 0.0);
  barotropic_->eta().store_global(scratch);
  write_field(os, scratch);
  barotropic_->u().store_global(scratch);
  write_field(os, scratch);
  barotropic_->v().store_global(scratch);
  write_field(os, scratch);
  for (int k = 0; k < tracer_->nz(); ++k) {
    tracer_->level(k).store_global(scratch);
    write_field(os, scratch);
  }
  MINIPOP_REQUIRE(os.good(), "checkpoint write failed");
}

void OceanModel::load_state(comm::Communicator& comm, std::istream& is) {
  MINIPOP_REQUIRE(cfg_.nranks == 1,
                  "checkpointing is supported for single-rank runs");
  std::uint64_t header[5] = {};
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  MINIPOP_REQUIRE(is.good() && header[0] == kCheckpointMagic,
                  "not a minipop checkpoint");
  MINIPOP_REQUIRE(header[1] == static_cast<std::uint64_t>(grid_->nx()) &&
                      header[2] == static_cast<std::uint64_t>(grid_->ny()) &&
                      header[3] == static_cast<std::uint64_t>(tracer_->nz()),
                  "checkpoint shape " << header[1] << "x" << header[2]
                                      << "x" << header[3]
                                      << " does not match this model");
  steps_ = static_cast<long>(header[4]);

  util::Field scratch(grid_->nx(), grid_->ny(), 0.0);
  read_field(is, scratch);
  barotropic_->eta().load_global(scratch);
  read_field(is, scratch);
  barotropic_->u().load_global(scratch);
  read_field(is, scratch);
  barotropic_->v().load_global(scratch);
  for (int k = 0; k < tracer_->nz(); ++k) {
    read_field(is, scratch);
    tracer_->level(k).load_global(scratch);
  }
  MINIPOP_REQUIRE(is.good(), "checkpoint read failed");

  // Restore the fresh-halo invariant the stepping relies on.
  comm::DistFieldBatch* const state[3] = {
      &barotropic_->eta(), &barotropic_->u(), &barotropic_->v()};
  halo_->exchange_group(comm, state);
}

}  // namespace minipop::model
