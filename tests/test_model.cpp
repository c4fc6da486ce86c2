#include <gtest/gtest.h>

#include <cmath>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/model/diagnostics.hpp"
#include "src/model/forcing.hpp"
#include "src/model/ocean_model.hpp"

namespace mc = minipop::comm;
namespace mm = minipop::model;
namespace mu = minipop::util;

namespace {

mm::ModelConfig small_config(int nranks = 1) {
  mm::ModelConfig cfg;
  cfg.grid = minipop::grid::pop_1deg_spec(0.1);  // 32 x 38
  cfg.nz = 3;
  cfg.block_size = 16;
  cfg.nranks = nranks;
  cfg.bathymetry.seed = 2015;
  cfg.solver.options.rel_tolerance = 1e-12;
  return cfg;
}

}  // namespace

TEST(Forcing, WindProfileStructure) {
  mm::Forcing f;
  // Easterly trades at the equator, westerlies in mid-latitudes.
  EXPECT_LT(f.wind_stress_x(0.0, 90.0), 0.0);
  EXPECT_GT(f.wind_stress_x(45.0, 90.0), 0.0);
  // Tapered near the pole.
  EXPECT_LT(std::abs(f.wind_stress_x(89.0, 90.0)),
            std::abs(f.wind_stress_x(45.0, 90.0)));
}

TEST(Forcing, SstProfileAndSeason) {
  mm::Forcing f;
  EXPECT_NEAR(f.restoring_sst(0.0, 0.0), f.t_equator, 0.2);
  EXPECT_NEAR(f.restoring_sst(90.0, 0.0), f.t_pole, 0.2);
  // Opposite seasonal phase across hemispheres.
  double north = f.restoring_sst(45.0, 90.0) - f.restoring_sst(45.0, 270.0);
  double south =
      f.restoring_sst(-45.0, 90.0) - f.restoring_sst(-45.0, 270.0);
  EXPECT_GT(north, 0.0);
  EXPECT_LT(south, 0.0);
}

TEST(OceanModel, StepsStablyAndExercisesSolver) {
  mc::SerialComm comm;
  mm::OceanModel model(comm, small_config());
  // dt was auto-selected for a gravity-wave Courant number of ~5.
  EXPECT_GT(model.config().dt, 0.0);
  long total_iters = 0;
  for (int s = 0; s < 72; ++s) {
    auto stats = model.step(comm);
    EXPECT_TRUE(stats.converged);
    total_iters += stats.iterations;
  }
  EXPECT_GT(total_iters, 72);  // solver genuinely iterates
  EXPECT_LT(model.max_speed(comm), 3.0);  // physically sane speeds
  EXPECT_EQ(model.step_count(), 72);
  EXPECT_NEAR(model.time_days(), 72.0 * model.config().dt / 86400.0,
              1e-9);
}

TEST(OceanModel, SshStaysNearZeroMean) {
  mc::SerialComm comm;
  mm::OceanModel model(comm, small_config());
  model.run_days(comm, 2.0);
  // Volume conservation: the free surface may slosh, its mean must not
  // drift far.
  EXPECT_LT(std::abs(model.mean_ssh(comm)), 0.05);
}

TEST(OceanModel, TemperatureStaysPhysical) {
  mc::SerialComm comm;
  mm::OceanModel model(comm, small_config());
  model.run_days(comm, 3.0);
  mu::Array3D<double> t;
  model.gather_temperature(t);
  const auto& cfg = model.config();
  for (double v : std::span<const double>(t.data(), t.size())) {
    EXPECT_GT(v, cfg.t_pole - cfg.t_seasonal - 5.0);
    EXPECT_LT(v, cfg.t_equator + cfg.t_seasonal + 5.0);
  }
  // The flow actually moves: kinetic energy is nonzero.
  EXPECT_GT(model.kinetic_energy(comm), 0.0);
}

TEST(OceanModel, BitwiseDeterministic) {
  mc::SerialComm c1, c2;
  mm::OceanModel m1(c1, small_config());
  mm::OceanModel m2(c2, small_config());
  for (int s = 0; s < 36; ++s) {
    m1.step(c1);
    m2.step(c2);
  }
  mu::Array3D<double> t1, t2;
  m1.gather_temperature(t1);
  m2.gather_temperature(t2);
  for (std::size_t n = 0; n < t1.size(); ++n)
    ASSERT_EQ(t1.data()[n], t2.data()[n]) << "cell " << n;
}

TEST(OceanModel, TinyPerturbationStaysTinyInitially) {
  mc::SerialComm c1, c2;
  mm::OceanModel m1(c1, small_config());
  mm::OceanModel m2(c2, small_config());
  m2.perturb_temperature(1e-14, 42);
  for (int s = 0; s < 10; ++s) {
    m1.step(c1);
    m2.step(c2);
  }
  mu::Array3D<double> t1, t2;
  m1.gather_temperature(t1);
  m2.gather_temperature(t2);
  double max_diff = 0;
  for (std::size_t n = 0; n < t1.size(); ++n)
    max_diff = std::max(max_diff, std::abs(t1.data()[n] - t2.data()[n]));
  EXPECT_GT(max_diff, 0.0);   // the perturbation is there...
  EXPECT_LT(max_diff, 1e-8);  // ...but has not blown up in 10 steps
}

TEST(OceanModel, MultiRankRunsAndAgreesApproximately) {
  auto cfg = small_config(3);
  // Serial reference.
  mc::SerialComm scomm;
  auto scfg = cfg;
  scfg.nranks = 1;
  mm::OceanModel serial(scomm, scfg);
  serial.run_days(scomm, 0.5);
  const double serial_mean = serial.mean_temperature(scomm);
  const double serial_ke = serial.kinetic_energy(scomm);

  mc::ThreadTeam team(3);
  team.run([&](mc::Communicator& comm) {
    mm::OceanModel model(comm, cfg);
    model.run_days(comm, 0.5);
    // Different reduction orders / block layouts: results agree to
    // solver-tolerance level, not bitwise.
    EXPECT_NEAR(model.mean_temperature(comm), serial_mean,
                1e-6 * std::abs(serial_mean));
    EXPECT_NEAR(model.kinetic_energy(comm), serial_ke,
                1e-4 * std::max(1.0, serial_ke));
  });
}

// Outside the elliptic solve a model step makes five halo rounds: eta
// before the predictor, {u*, v*}, eta after the solve, {u, v} and one
// round for all tracer levels.
TEST(OceanModel, StepMakesFiveHaloRoundsOutsideTheSolve) {
  const auto check_step = [](mc::Communicator& comm, int nranks) {
    mm::OceanModel model(comm, small_config(nranks));
    const mc::CostCounters before = comm.costs().counters();
    const auto stats = model.step(comm);
    const mc::CostCounters step = comm.costs().since(before);
    EXPECT_GT(stats.costs.halo_exchanges, 0u);
    EXPECT_EQ(step.halo_exchanges - stats.costs.halo_exchanges, 5u);
  };
  {
    SCOPED_TRACE("1 rank");
    mc::SerialComm comm;
    check_step(comm, 1);
  }
  SCOPED_TRACE("4 ranks");
  mc::ThreadTeam team(4);
  team.run([&](mc::Communicator& comm) { check_step(comm, 4); });
}

TEST(OceanModel, PcsiAndChronGearProduceConsistentOcean) {
  // Swapping the solver must not change the ocean beyond solver
  // tolerance over a short run — the premise of the paper's §6 analysis.
  auto cfg_cg = small_config();
  auto cfg_pcsi = small_config();
  cfg_pcsi.solver.solver = minipop::solver::SolverKind::kPcsi;
  cfg_pcsi.solver.preconditioner =
      minipop::solver::PreconditionerKind::kBlockEvp;
  mc::SerialComm c1, c2;
  mm::OceanModel m1(c1, cfg_cg);
  mm::OceanModel m2(c2, cfg_pcsi);
  for (int s = 0; s < 72; ++s) {
    m1.step(c1);
    m2.step(c2);
  }
  EXPECT_NEAR(m1.mean_temperature(c1), m2.mean_temperature(c2), 1e-7);
  mu::Field ssh1, ssh2;
  m1.gather_ssh(ssh1);
  m2.gather_ssh(ssh2);
  double max_diff = 0;
  for (int j = 0; j < ssh1.ny(); ++j)
    for (int i = 0; i < ssh1.nx(); ++i)
      max_diff = std::max(max_diff, std::abs(ssh1(i, j) - ssh2(i, j)));
  EXPECT_LT(max_diff, 1e-6);
}

TEST(MonthlyRecorder, AccumulatesCalendarMonths) {
  mc::SerialComm comm;
  auto cfg = small_config();
  mm::OceanModel model(comm, cfg);
  mm::MonthlyTemperatureRecorder rec(model);
  const long steps_per_month = static_cast<long>(
      std::llround(30.0 * 86400.0 / model.config().dt));
  for (long s = 0; s < 2 * steps_per_month + 3; ++s) {
    model.step(comm);
    rec.sample(model);
  }
  EXPECT_EQ(rec.completed_months(), 2);
  const auto& m0 = rec.months()[0];
  EXPECT_EQ(m0.nx(), model.grid().nx());
  EXPECT_EQ(m0.nz(), cfg.nz);
  // Monthly means are physical temperatures on ocean points.
  bool any_nonzero = false;
  for (std::size_t n = 0; n < m0.size(); ++n)
    if (m0.data()[n] != 0.0) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
}
