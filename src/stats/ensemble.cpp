#include "src/stats/ensemble.hpp"

#include <algorithm>
#include <memory>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/model/diagnostics.hpp"
#include "src/model/ocean_model.hpp"
#include "src/util/error.hpp"

namespace minipop::stats {

namespace {

MonthlySeries run_member_on(comm::Communicator& comm,
                            const EnsembleConfig& config, int member) {
  model::OceanModel model(comm, config.model);
  if (member >= 0) {
    // The perturbation is seeded per GLOBAL cell, so it is identical
    // for every decomposition and rank count.
    model.perturb_temperature(
        config.perturbation,
        config.seed0 + static_cast<std::uint64_t>(member));
  }
  model::MonthlyTemperatureRecorder recorder(model);
  while (recorder.completed_months() < config.months) {
    model.step(comm);
    recorder.sample(model);
  }
  return recorder.months();
}

}  // namespace

MonthlySeries run_member(const EnsembleConfig& config, int member) {
  MINIPOP_REQUIRE(config.months >= 1, "months=" << config.months);
  const int nranks = config.model.nranks;
  MINIPOP_REQUIRE(nranks >= 1, "nranks=" << nranks);

  if (nranks == 1) {
    comm::SerialComm comm;
    return run_member_on(comm, config, member);
  }

  // Threaded member: each rank steps its share of the decomposition and
  // records its OWNED cells (gather_temperature leaves unowned cells at
  // zero), so the per-rank partial series sum elementwise — exactly,
  // zeros against values — into the full monthly means.
  comm::ThreadTeam team(nranks);
  std::vector<MonthlySeries> partial(nranks);
  team.run([&](comm::Communicator& comm) {
    partial[comm.rank()] = run_member_on(comm, config, member);
  });

  MonthlySeries out = std::move(partial[0]);
  for (int r = 1; r < nranks; ++r) {
    MINIPOP_REQUIRE(partial[r].size() == out.size(),
                    "rank " << r << " recorded " << partial[r].size()
                            << " months, rank 0 " << out.size());
    for (std::size_t t = 0; t < out.size(); ++t) {
      auto dst = out[t].flat();
      const auto src = partial[r][t].flat();
      for (std::size_t q = 0; q < dst.size(); ++q) dst[q] += src[q];
    }
  }
  return out;
}

std::vector<MonthlySeries> run_ensemble(
    const EnsembleConfig& config,
    const std::function<void(int, int)>& progress) {
  MINIPOP_REQUIRE(config.members >= 2, "members=" << config.members);
  MINIPOP_REQUIRE(config.batch >= 1, "batch=" << config.batch);

  if (config.batch == 1) {
    std::vector<MonthlySeries> out;
    out.reserve(config.members);
    for (int m = 0; m < config.members; ++m) {
      out.push_back(run_member(config, m));
      if (progress) progress(m + 1, config.members);
    }
    return out;
  }

  // Batched groups: the members of a group advance in lockstep, and
  // each time step's elliptic solves run as ONE multi-RHS batched solve
  // — one aggregated halo message per neighbor and one vector allreduce
  // per reduction point for the whole group (DESIGN.md §10).
  MINIPOP_REQUIRE(config.model.nranks == 1,
                  "batched ensemble members run serially (batch > 1 "
                  "requires nranks == 1; see EnsembleConfig::batch)");
  MINIPOP_REQUIRE(config.months >= 1, "months=" << config.months);

  std::vector<MonthlySeries> out(config.members);
  int done = 0;
  for (int g = 0; g < config.members; g += config.batch) {
    const int n = std::min(config.batch, config.members - g);
    comm::SerialComm comm;
    std::vector<std::unique_ptr<model::OceanModel>> models;
    std::vector<std::unique_ptr<model::MonthlyTemperatureRecorder>>
        recorders;
    models.reserve(n);
    recorders.reserve(n);
    for (int t = 0; t < n; ++t) {
      models.push_back(
          std::make_unique<model::OceanModel>(comm, config.model));
      models.back()->perturb_temperature(
          config.perturbation,
          config.seed0 + static_cast<std::uint64_t>(g + t));
      recorders.push_back(
          std::make_unique<model::MonthlyTemperatureRecorder>(
              *models.back()));
    }

    // Every member's operator is identical (same grid, bathymetry and
    // solver configuration); member 0's solver carries the batch.
    auto& solver = models[0]->barotropic().solver();
    std::vector<const comm::DistField*> bs(n);
    std::vector<comm::DistField*> xs(n);
    while (recorders[0]->completed_months() < config.months) {
      for (int t = 0; t < n; ++t) {
        models[t]->step_begin(comm);
        bs[t] = &models[t]->barotropic().rhs();
        xs[t] = &models[t]->barotropic().eta();
      }
      // step_begin leaves each member's eta halo fresh, and the batch
      // loads full padded planes, so the freshness attestation carries.
      const solver::BatchSolveStats batch_stats = solver.solve_batch(
          comm, bs, xs, comm::HaloFreshness::kFresh);
      for (int t = 0; t < n; ++t) {
        const solver::BatchMemberStats& ms = batch_stats.members[t];
        solver::SolveStats s;
        s.iterations = ms.iterations;
        s.converged = ms.converged;
        s.relative_residual = ms.relative_residual;
        s.failure = ms.failure;
        // Communication costs are joint across the batch and stay in
        // batch_stats.costs; per-member costs have no meaning here.
        models[t]->step_finish(comm, s);
        recorders[t]->sample(*models[t]);
      }
    }

    for (int t = 0; t < n; ++t) {
      out[g + t] = recorders[t]->months();
      if (progress) progress(++done, config.members);
    }
  }
  return out;
}

std::vector<util::Array3D<double>> month_slice(
    const std::vector<MonthlySeries>& ensemble, int month) {
  std::vector<util::Array3D<double>> out;
  out.reserve(ensemble.size());
  for (const auto& member : ensemble) {
    MINIPOP_REQUIRE(month >= 0 && month < static_cast<int>(member.size()),
                    "month " << month << " not recorded");
    out.push_back(member[month]);
  }
  return out;
}

}  // namespace minipop::stats
