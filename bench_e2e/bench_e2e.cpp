// End-to-end benchmark of the mini-POP model: fixed-work, closed-loop
// workloads replayed from a fixed spun-up state. README.md next to this
// file gives each workload's reason and the layer -> metric -> workload
// map; run.py builds this program, drives it and checks its record.
//
//   bench_e2e --workload=sim_evp_r1|ens_evp_b8|sim_diag_r4 --seed=N
//             --rounds=N --trace=0|1 [--spans=FILE]
//
// A round restores u, v, eta and the tracer levels of every member from
// the captured state and replays kStepsPerRound model steps with a step
// count held by the benchmark (OceanModel's own clock cannot be reset).
// After every measured round the workload's models are set up once more
// and destroyed, outside the round's timing.
// --trace=0 times untraced rounds for the end-to-end metrics; --trace=1
// alternates untraced and traced rounds, times single calls on the
// captured state and reports the per-layer metrics. The last stdout line
// is one JSON record; the exit code is 0 when the run completed (the
// record's "checks" say whether its outputs were correct).
#include <sched.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/model/diagnostics.hpp"
#include "src/model/ocean_model.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"
#include "trace.hpp"

#ifndef BENCH_CXX_FLAGS
#define BENCH_CXX_FLAGS "unknown"
#endif

using namespace minipop;

namespace {

constexpr int kStepsPerRound = 4;
/// One simulated day at the 64x77 grid's recommended dt (~5079 s).
constexpr int kSpinupSteps = 17;
/// Single-call timings on the captured state: calls per layer function.
constexpr int kMicroCalls = 100;
/// The paper's ensemble perturbation size (§6).
constexpr double kPerturbation = 1e-14;
/// End-to-end timings are the mean of their samples without the slowest
/// kTrimSlowest of them: the mean follows the share of a run each host
/// speed phase takes, and the trim sheds scheduling stalls, which hit up
/// to ~15% of the 4-rank rounds. Every round does identical work, so
/// rounds differ only by interference from the host; README.md records
/// the repeated runs this choice rests on.
constexpr double kTrimSlowest = 0.2;

double estimate(const std::vector<double>& v) {
  return bench::trimmed_mean(v, kTrimSlowest);
}

struct Workload {
  const char* name;
  int ranks;
  int members;  ///< lockstep batch width; 1 = scalar solves
  solver::PreconditionerKind precond;
  int halo_depth;
};

constexpr Workload kWorkloads[] = {
    {"sim_evp_r1", 1, 1, solver::PreconditionerKind::kBlockEvp, 1},
    {"ens_evp_b8", 1, 8, solver::PreconditionerKind::kBlockEvp, 1},
    {"sim_diag_r4", 4, 1, solver::PreconditionerKind::kDiagonal,
     solver::kHaloDepthAuto},
};

model::ModelConfig model_config(const Workload& w, std::uint64_t seed,
                                int ranks, int halo_depth) {
  model::ModelConfig cfg;
  cfg.grid = grid::pop_1deg_spec(0.2);
  cfg.nz = 4;
  cfg.block_size = 12;
  cfg.nranks = ranks;
  cfg.bathymetry.seed = seed;
  cfg.solver.solver = solver::SolverKind::kPcsi;
  cfg.solver.preconditioner = w.precond;
  cfg.solver.options.halo_depth = halo_depth;
  return cfg;
}

/// OceanModel::yearday() at step count `step`.
double yearday_at(long step, double dt) {
  return std::fmod(step * dt / model::kSecondsPerDay, model::kDaysPerYear);
}

/// Adds kSshBumps Gaussian sea-surface height bumps drawn from `seed`
/// to the ocean cells of eta. The bumps are placed in global cell
/// coordinates, so every decomposition gets the same field.
void add_ssh_anomaly(model::OceanModel& m, std::uint64_t seed) {
  constexpr int kSshBumps = 8;
  constexpr double kAmplitude = 0.01;  // [m]
  constexpr double kRadius = 4.0;     // [cells]
  const grid::Decomposition& d = m.decomposition();
  util::Xoshiro256 rng(seed);
  double x0[kSshBumps], y0[kSshBumps], amp[kSshBumps];
  for (int k = 0; k < kSshBumps; ++k) {
    x0[k] = rng.uniform(0.0, d.nx_global());
    y0[k] = rng.uniform(0.0, d.ny_global());
    amp[k] = rng.uniform(-kAmplitude, kAmplitude);
  }
  comm::DistField& eta = m.barotropic().eta();
  for (int lb = 0; lb < eta.num_local_blocks(); ++lb) {
    const grid::BlockInfo& info = eta.info(lb);
    const util::MaskArray& mask = m.geometry().block(lb).mask;
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        if (!mask(i, j)) continue;
        double h = 0.0;
        for (int k = 0; k < kSshBumps; ++k) {
          double dx = std::abs(info.i0 + i - x0[k]);
          if (d.periodic_x()) dx = std::min(dx, d.nx_global() - dx);
          const double dy = info.j0 + j - y0[k];
          h += amp[k] *
               std::exp(-(dx * dx + dy * dy) / (2.0 * kRadius * kRadius));
        }
        eta.at(lb, i, j) += h;
      }
  }
}

// --- prognostic state -------------------------------------------------

std::vector<comm::DistField*> prognostic(model::OceanModel& m) {
  model::BarotropicMode& bm = m.barotropic();
  std::vector<comm::DistField*> f = {&bm.u(), &bm.v(), &bm.eta()};
  for (int k = 0; k < m.tracer().nz(); ++k) f.push_back(&m.tracer().level(k));
  return f;
}

using State = std::vector<comm::DistField>;

State snapshot(model::OceanModel& m) {
  State s;
  for (comm::DistField* f : prognostic(m)) s.push_back(*f);
  return s;
}

/// Copies whole padded planes, so halos come back fresh as well.
void restore(model::OceanModel& m, const State& s) {
  const auto f = prognostic(m);
  for (std::size_t q = 0; q < f.size(); ++q)
    for (int lb = 0; lb < f[q]->num_local_blocks(); ++lb)
      f[q]->data(lb) = s[q].data(lb);
}

/// Bitwise comparison of the owned interiors.
bool same_bits(model::OceanModel& m, const State& s) {
  const auto f = prognostic(m);
  for (std::size_t q = 0; q < f.size(); ++q)
    for (int lb = 0; lb < f[q]->num_local_blocks(); ++lb) {
      const grid::BlockInfo& info = f[q]->info(lb);
      for (int j = 0; j < info.ny; ++j)
        if (std::memcmp(f[q]->interior(lb) + j * f[q]->stride(lb),
                        s[q].interior(lb) + j * s[q].stride(lb),
                        sizeof(double) * info.nx) != 0)
          return false;
    }
  return true;
}

// --- counts -----------------------------------------------------------

/// The integer outcome of one round on one rank. Replayed rounds must
/// reproduce it exactly.
struct Counts {
  comm::CostCounters step;   ///< whole model steps
  comm::CostCounters solve;  ///< inside the solve calls
  long member_iterations = 0;
  long lockstep_iterations = 0;
  long member_solves = 0;
  long unconverged = 0;
};

bool same_integers(const comm::CostCounters& a, const comm::CostCounters& b) {
  return a.flops == b.flops && a.redundant_flops == b.redundant_flops &&
         a.p2p_messages == b.p2p_messages && a.p2p_bytes == b.p2p_bytes &&
         a.halo_exchanges == b.halo_exchanges &&
         a.halo_member_updates == b.halo_member_updates &&
         a.allreduces == b.allreduces &&
         a.allreduce_doubles == b.allreduce_doubles &&
         a.requests == b.requests && a.active_points == b.active_points &&
         a.swept_points == b.swept_points &&
         a.integrity_checks == b.integrity_checks &&
         a.integrity_failures == b.integrity_failures;
}

bool same_counts(const Counts& a, const Counts& b) {
  return same_integers(a.step, b.step) && same_integers(a.solve, b.solve) &&
         a.member_iterations == b.member_iterations &&
         a.lockstep_iterations == b.lockstep_iterations &&
         a.member_solves == b.member_solves &&
         a.unconverged == b.unconverged;
}

// --- host ---------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.substr(0, s.find('\0'));
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

long cache_kib(int sysconf_name) {
  const long v = sysconf(sysconf_name);
  return v > 0 ? v / 1024 : 0;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// Peak resident set of this process image [MiB]: VmHWM, because
/// getrusage's ru_maxrss survives execve and so reports the launching
/// process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  throw util::Error("bench_e2e: no VmHWM line in /proc/self/status");
}

/// Benchmark-owned fixed loop [ms]. It shows which speed regime the
/// host was in; no metric is corrected by it.
double calibration_ms() {
  static std::vector<double> a(1 << 15, 1.0), b(1 << 15, 0.5);
  const double t0 = bench::now_seconds();
  double acc = 0.0;
  for (int r = 0; r < 40; ++r)
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = a[i] * 0.999 + b[i];
      acc += a[i];
    }
  const double ms = 1e3 * (bench::now_seconds() - t0);
  return std::isfinite(acc) ? ms : -1.0;
}

// --- JSON -----------------------------------------------------------------

class Json {
 public:
  Json& num(const std::string& k, double v) {
    std::ostringstream os;
    if (std::isfinite(v))
      os << std::setprecision(17) << v;
    else
      os << "null";
    return raw(k, os.str());
  }
  Json& integer(const std::string& k, long long v) {
    return raw(k, std::to_string(v));
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string e = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') e += '\\';
      e += c;
    }
    return raw(k, e + "\"");
  }
  Json& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + k + "\": " + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A timing as its median, the highest percentile with at least ten
/// samples beyond it, the sample count and the end-to-end estimate.
std::string timing_json(const std::vector<double>& v, double scale) {
  const bench::Summary s = bench::summarize(v);
  Json j;
  j.num("median", s.median * scale);
  if (s.tail_pct > 0)
    j.num("p" + std::to_string(s.tail_pct), s.tail * scale);
  j.integer("n", static_cast<long long>(s.n))
      .num("trimmed_mean", estimate(v) * scale);
  return j.dump();
}

std::string counters_json(const comm::CostCounters& c) {
  return Json()
      .integer("flops", c.flops)
      .integer("redundant_flops", c.redundant_flops)
      .integer("p2p_messages", c.p2p_messages)
      .integer("p2p_bytes", c.p2p_bytes)
      .integer("halo_exchanges", c.halo_exchanges)
      .integer("halo_member_updates", c.halo_member_updates)
      .integer("allreduces", c.allreduces)
      .integer("allreduce_doubles", c.allreduce_doubles)
      .integer("active_points", c.active_points)
      .integer("swept_points", c.swept_points)
      .dump();
}

// --- one workload run -----------------------------------------------------

struct Member {
  std::unique_ptr<model::OceanModel> model;
  std::unique_ptr<model::MonthlyTemperatureRecorder> recorder;
  /// The benchmark's own exchanger, for its residual check.
  std::unique_ptr<comm::HaloExchanger> halo;
  State saved;     ///< the captured spun-up state
  State expected;  ///< after one round of the model's own step calls
};

struct Diagnostics {
  double mean_ssh = 0.0, mean_temperature = 0.0, kinetic_energy = 0.0;
  bool operator==(const Diagnostics& o) const {
    return std::memcmp(this, &o, sizeof(*this)) == 0;
  }
};

/// What one rank learned; rank 0 also keeps all timings and spans.
struct RankOut {
  std::vector<Counts> rounds;
  comm::CostCounters wait;  ///< traced rounds (exposed_comm_seconds)
  bool rounds_bitwise = true;
  bool counts_exact = true;
};

struct RunSettings {
  Workload workload;
  std::uint64_t seed = 0;
  std::uint64_t bathymetry_seed = 2015;
  int ranks = 1;
  int halo_depth = 1;
  int rounds = 0;
  bool throwaway_setups = true;  ///< one more set-up after every round
  bool trace = false;  ///< alternate traced rounds, time single calls
};

class WorkloadRun {
 public:
  explicit WorkloadRun(const RunSettings& s)
      : s_(s),
        cfg_(model_config(s.workload, s.bathymetry_seed, s.ranks,
                          s.halo_depth)),
        out_(s.ranks) {}

  void run() {
    if (s_.ranks == 1) {
      comm::SerialComm comm;
      rank_main(comm);
    } else {
      comm::ThreadTeam team(s_.ranks);
      team.run([this](comm::Communicator& comm) { rank_main(comm); });
    }
  }

  // Results (valid after run()).
  const std::vector<RankOut>& ranks() const { return out_; }
  const bench::SpanLog& spans() const { return log_; }
  std::vector<double> setup_s, untraced_round_s, traced_round_s, step_s;
  std::vector<double> setup_grid_s, setup_solver_s;
  std::map<std::string, std::vector<double>> micro_s;
  std::vector<Diagnostics> diag_untraced, diag_traced;
  std::vector<util::Field> global_expected;
  double max_rel_residual = 0.0;
  double peak_rss_live_mb = 0.0;
  double dt = 0.0;
  int lanczos_steps = 0;
  int resolved_halo_depth = 0;
  std::string solver_description;
  int active_blocks = 0;
  double ocean_fraction = 0.0;

  int members() const { return s_.workload.members; }

 private:
  bool root(comm::Communicator& comm) const { return comm.rank() == 0; }

  void sync(comm::Communicator& comm) {
    if (comm.size() > 1) comm.barrier();
  }

  /// Builds every member's model, timed on all ranks together; traced
  /// runs also time the set-up layers apart.
  void timed_setup(comm::Communicator& comm, std::vector<Member>& ms) {
    ms.clear();
    sync(comm);
    const double t0 = bench::now_seconds();
    for (int t = 0; t < members(); ++t) {
      Member m;
      m.model = std::make_unique<model::OceanModel>(comm, cfg_);
      ms.push_back(std::move(m));
    }
    sync(comm);
    if (root(comm)) setup_s.push_back(bench::now_seconds() - t0);
    if (s_.trace) time_setup_layers(comm, ms);
  }

  /// The seeded inputs: an initial sea-surface height anomaly shared by
  /// every member and, for an ensemble, each member's temperature
  /// perturbation (seed + member, as stats::run_ensemble seeds them).
  void seed_inputs(std::vector<Member>& ms) {
    for (std::size_t t = 0; t < ms.size(); ++t) {
      add_ssh_anomaly(*ms[t].model, s_.seed);
      if (ms.size() > 1)
        ms[t].model->perturb_temperature(kPerturbation, s_.seed + t);
    }
  }

  /// Grid + bathymetry + decomposition and the solver constructor,
  /// timed apart for every member (the model's constructor runs both).
  void time_setup_layers(comm::Communicator& comm, std::vector<Member>& ms) {
    double grid_s = 0.0, solver_s = 0.0;
    for (Member& m : ms) {
      sync(comm);
      double t0 = bench::now_seconds();
      {
        grid::CurvilinearGrid g(cfg_.grid);
        const util::Field depth =
            grid::synthetic_earth_bathymetry(g, cfg_.bathymetry);
        const util::MaskArray mask = grid::ocean_mask(depth);
        grid::Decomposition d(g.nx(), g.ny(), g.periodic_x(), mask,
                              cfg_.block_size, cfg_.block_size, cfg_.nranks);
        sync(comm);
      }
      grid_s += bench::now_seconds() - t0;
      model::OceanModel& om = *m.model;
      comm::HaloExchanger halo(om.decomposition());
      sync(comm);
      t0 = bench::now_seconds();
      {
        solver::BarotropicSolver sv(comm, halo, om.grid(), om.depth(),
                                    om.barotropic().stencil(),
                                    om.decomposition(), cfg_.solver);
        sync(comm);
      }
      solver_s += bench::now_seconds() - t0;
    }
    if (root(comm)) {
      setup_grid_s.push_back(grid_s);
      setup_solver_s.push_back(solver_s);
    }
  }

  /// One model step of every member. `held` < 0 steps through the
  /// model's own API and clock: OceanModel::step for one member, the
  /// loop of stats::run_ensemble (OceanModel::step_begin, solve_batch,
  /// OceanModel::step_finish, MonthlyTemperatureRecorder::sample) for
  /// several. `held` >= 0 replays the same calls one layer down with
  /// that step count: BarotropicMode::step (or its three parts when
  /// traced) and TemperatureTracer::step.
  void step_members(comm::Communicator& comm, std::vector<Member>& ms,
                    long held, long round, bench::SpanLog& log, Counts& c) {
    const bool replay = held >= 0;
    const double yd =
        replay ? yearday_at(held, ms[0].model->config().dt) : 0.0;
    bench::Scope step_span(log, "model.step", round);

    if (ms.size() == 1) {
      model::OceanModel& m = *ms[0].model;
      model::BarotropicMode& bm = m.barotropic();
      solver::SolveStats st;
      if (!replay) {
        st = m.step(comm);
      } else if (!log.enabled()) {
        st = bm.step(comm, yd);
        m.tracer().step(comm, bm.u(), bm.v(), yd);
      } else {
        {
          bench::Scope s(log, "model.step_begin", round);
          bm.step_begin(comm, yd);
        }
        {
          bench::Scope s(log, "solver.solve", round);
          st = bm.solver().solve(comm, bm.rhs(), bm.eta(),
                                 comm::HaloFreshness::kFresh);
        }
        {
          bench::Scope s(log, "model.step_finish", round);
          bm.step_finish(comm, st);
        }
        bench::Scope s(log, "model.tracer", round);
        m.tracer().step(comm, bm.u(), bm.v(), yd);
      }
      c.solve += st.costs;
      c.member_iterations += st.iterations;
      c.lockstep_iterations += st.iterations;
      ++c.member_solves;
      if (!st.converged) ++c.unconverged;
      return;
    }

    const std::size_t n = ms.size();
    std::vector<const comm::DistField*> bs(n);
    std::vector<comm::DistField*> xs(n);
    for (std::size_t t = 0; t < n; ++t) {
      model::BarotropicMode& bm = ms[t].model->barotropic();
      {
        bench::Scope s(log, "model.step_begin", round);
        if (replay)
          bm.step_begin(comm, yd);
        else
          ms[t].model->step_begin(comm);
      }
      bs[t] = &bm.rhs();
      xs[t] = &bm.eta();
    }
    solver::BatchSolveStats bst;
    {
      bench::Scope s(log, "solver.solve", round);
      bst = ms[0].model->barotropic().solver().solve_batch(
          comm, bs, xs, comm::HaloFreshness::kFresh);
    }
    c.solve += bst.costs;
    c.lockstep_iterations += bst.iterations;
    for (std::size_t t = 0; t < n; ++t) {
      model::OceanModel& m = *ms[t].model;
      const solver::BatchMemberStats& mst = bst.members[t];
      solver::SolveStats st;
      st.iterations = mst.iterations;
      st.converged = mst.converged;
      st.relative_residual = mst.relative_residual;
      st.failure = mst.failure;
      st.refine_sweeps = bst.refine_sweeps;
      if (replay) {
        {
          bench::Scope s(log, "model.step_finish", round);
          m.barotropic().step_finish(comm, st);
        }
        bench::Scope s(log, "model.tracer", round);
        m.tracer().step(comm, m.barotropic().u(), m.barotropic().v(), yd);
      } else {
        m.step_finish(comm, st);
      }
      {
        bench::Scope s(log, "stats.record", round);
        ms[t].recorder->sample(m);
      }
      c.member_iterations += mst.iterations;
      ++c.member_solves;
      if (!mst.converged) ++c.unconverged;
    }
  }

  /// The benchmark's own check of the last solve of a round:
  /// ||b - A x|| / ||b|| over ocean cells, via DistOperator::residual
  /// and a global dot product.
  double relative_residual(comm::Communicator& comm, Member& m) {
    model::BarotropicMode& bm = m.model->barotropic();
    const solver::DistOperator& op = bm.solver().op();
    comm::DistField r(m.model->decomposition(), comm.rank());
    op.residual(comm, *m.halo, bm.rhs(), bm.eta(), r);
    double rr = op.local_dot(comm, r, r);
    double bb = op.local_dot(comm, bm.rhs(), bm.rhs());
    comm.allreduce_sum2(&rr, &bb);
    return bb > 0.0 ? std::sqrt(rr / bb) : 0.0;
  }

  std::vector<Diagnostics> diagnostics(comm::Communicator& comm,
                                       std::vector<Member>& ms) {
    std::vector<Diagnostics> d;
    for (Member& m : ms)
      d.push_back({m.model->mean_ssh(comm), m.model->mean_temperature(comm),
                   m.model->kinetic_energy(comm)});
    return d;
  }

  template <typename F>
  void time_calls(comm::Communicator& comm, const std::string& name,
                  bool collective, F&& call) {
    std::vector<double> v;
    for (int i = 0; i < kMicroCalls; ++i) {
      if (collective) sync(comm);
      const double t0 = bench::now_seconds();
      call();
      v.push_back(bench::now_seconds() - t0);
    }
    if (root(comm)) micro_s[name] = std::move(v);
  }

  /// Single calls into each layer's public functions on the captured
  /// state (after step_begin of its first replayed step).
  void time_single_calls(comm::Communicator& comm, std::vector<Member>& ms,
                         long first_step) {
    Member& m0 = ms[0];
    model::OceanModel& om = *m0.model;
    model::BarotropicMode& bm = om.barotropic();
    restore(om, m0.saved);
    bm.step_begin(comm, yearday_at(first_step, om.config().dt));
    solver::BarotropicSolver& sv = bm.solver();
    const grid::Decomposition& d = om.decomposition();
    comm::DistField z(d, comm.rank()), r(d, comm.rank()),
        x(bm.eta());
    constexpr int kB = 8;
    comm::DistFieldBatch in(d, comm.rank(), kB), out(d, comm.rank(), kB);
    for (int q = 0; q < kB; ++q) in.load_member(q, bm.rhs());

    time_calls(comm, "precond.apply", false,
               [&] { sv.preconditioner().apply(comm, bm.rhs(), z); });
    time_calls(comm, "precond.apply_batch", false,
               [&] { sv.preconditioner().apply_batch(comm, in, out); });
    time_calls(comm, "solver.residual", true, [&] {
      sv.op().residual(comm, *m0.halo, bm.rhs(), x, r);
    });
    time_calls(comm, "comm.halo_exchange", true,
               [&] { m0.halo->exchange(comm, x); });
    time_calls(comm, "comm.allreduce", true, [&] {
      double v = 1.0;
      comm.allreduce(std::span<double>(&v, 1), comm::ReduceOp::kSum);
    });
    if (!m0.recorder) {
      model::MonthlyTemperatureRecorder rec(om);
      time_calls(comm, "stats.record", false, [&] { rec.sample(om); });
    }
  }

  /// Writes this rank's blocks of the expected state into global fields.
  void gather_expected(std::vector<Member>& ms) {
    const grid::Decomposition& d = ms[0].model->decomposition();
    std::lock_guard<std::mutex> lock(mu_);
    if (global_expected.empty())
      for (std::size_t q = 0; q < ms[0].expected.size(); ++q)
        global_expected.emplace_back(d.nx_global(), d.ny_global(), 0.0);
    for (std::size_t q = 0; q < ms[0].expected.size(); ++q)
      ms[0].expected[q].store_global(global_expected[q]);
  }

  void rank_main(comm::Communicator& comm) {
    RankOut& me = out_[comm.rank()];
    // Spans are recorded on rank 0; the other ranks' log stays disabled.
    bench::SpanLog idle;
    bench::SpanLog& log = root(comm) ? log_ : idle;
    std::vector<Member> ms;

    // The set-up whose models run; the throwaway ones follow the rounds.
    timed_setup(comm, ms);
    seed_inputs(ms);
    for (Member& m : ms) {
      if (members() > 1)
        m.recorder =
            std::make_unique<model::MonthlyTemperatureRecorder>(*m.model);
      m.halo = std::make_unique<comm::HaloExchanger>(m.model->decomposition());
    }
    model::OceanModel& m0 = *ms[0].model;
    if (root(comm)) {
      dt = m0.config().dt;
      solver::BarotropicSolver& sv = m0.barotropic().solver();
      solver_description = sv.description();
      resolved_halo_depth = sv.config().options.halo_depth;
      lanczos_steps = sv.lanczos() ? sv.lanczos()->steps : 0;
      active_blocks = m0.decomposition().num_active_blocks();
      ocean_fraction = m0.decomposition().ocean_fraction();
    }
    sync(comm);

    // Spin up through the model's own API, capture, then one more round
    // through it: the state every replayed round must reproduce.
    Counts scratch;
    for (int s = 0; s < kSpinupSteps; ++s)
      step_members(comm, ms, -1, -1, log, scratch);
    const long first_step = m0.step_count();
    for (Member& m : ms) m.saved = snapshot(*m.model);
    for (int s = 0; s < kStepsPerRound; ++s)
      step_members(comm, ms, -1, -1, log, scratch);
    for (Member& m : ms) m.expected = snapshot(*m.model);
    gather_expected(ms);

    // Measured rounds. With tracing, odd rounds are traced; without, one
    // traced round follows the measured ones, so that both modes check
    // that tracing leaves the outputs unchanged.
    const int total = s_.rounds > 0 && !s_.trace ? s_.rounds + 1 : s_.rounds;
    for (int round = 0; round < total; ++round) {
      const bool traced = s_.trace ? round % 2 == 1 : round == s_.rounds;
      for (Member& m : ms) {
        restore(*m.model, m.saved);
        // A fresh recorder per round: no round completes a month, so
        // every round does the same work however many there are.
        if (m.recorder)
          m.recorder =
              std::make_unique<model::MonthlyTemperatureRecorder>(*m.model);
      }
      log.set_enabled(traced);
      sync(comm);
      const comm::CostCounters c0 = comm.costs().counters();
      Counts c;
      const double t0 = bench::now_seconds();
      {
        bench::Scope round_span(log, "round", round);
        for (int s = 0; s < kStepsPerRound; ++s) {
          const double ts = bench::now_seconds();
          step_members(comm, ms, first_step + s, round, log, c);
          if (root(comm) && !traced)
            step_s.push_back(bench::now_seconds() - ts);
        }
        sync(comm);
      }
      const double seconds = bench::now_seconds() - t0;
      log.set_enabled(false);
      c.step = comm.costs().since(c0);
      if (traced) me.wait += c.step;
      if (root(comm))
        (traced ? traced_round_s : untraced_round_s).push_back(seconds);

      if (!me.rounds.empty() && !same_counts(c, me.rounds.front()))
        me.counts_exact = false;
      me.rounds.push_back(c);
      for (Member& m : ms) {
        if (!same_bits(*m.model, m.expected)) me.rounds_bitwise = false;
        const double rel = relative_residual(comm, m);
        if (root(comm)) max_rel_residual = std::max(max_rel_residual, rel);
      }
      if (round >= total - 2) {  // the last round of each kind
        auto d = diagnostics(comm, ms);
        if (root(comm)) (traced ? diag_traced : diag_untraced) = d;
      }

      // A throwaway set-up after each measured round, so that setup_s
      // samples the host's speed phases over the same window as the
      // rounds. The peak resident set is read before the first of them:
      // it covers the models that run, their spin-up and first round.
      if (round < s_.rounds) {
        if (root(comm) && round == 0) peak_rss_live_mb = peak_rss_mb();
        if (s_.throwaway_setups) {
          std::vector<Member> throwaway;
          timed_setup(comm, throwaway);
        }
      }
    }
    if (s_.rounds == 0) {
      auto d = diagnostics(comm, ms);
      if (root(comm)) diag_untraced = d;
    }

    if (s_.trace) time_single_calls(comm, ms, first_step);
  }

  RunSettings s_;
  model::ModelConfig cfg_;
  std::vector<RankOut> out_;
  bench::SpanLog log_;
  std::mutex mu_;
};

// --- report -----------------------------------------------------------

struct Totals {
  comm::CostCounters step, solve;  ///< summed over ranks
  comm::CostCounters step0, solve0;  ///< rank 0
  long member_iterations = 0, lockstep_iterations = 0, member_solves = 0,
       unconverged = 0;
};

/// Counts of round 1 (every round repeats them; checked separately).
Totals round_totals(const WorkloadRun& run) {
  Totals t;
  for (std::size_t r = 0; r < run.ranks().size(); ++r) {
    const Counts& c = run.ranks()[r].rounds.front();
    t.step += c.step;
    t.solve += c.solve;
    if (r == 0) {
      t.step0 = c.step;
      t.solve0 = c.solve;
      t.member_iterations = c.member_iterations;
      t.lockstep_iterations = c.lockstep_iterations;
      t.member_solves = c.member_solves;
      t.unconverged = c.unconverged;
    }
  }
  return t;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void add_metric(Json& j, const std::string& name, double value,
                const std::string& unit) {
  j.raw(name, Json().num("value", value).str("unit", unit).dump());
}

std::string diagnostics_json(const std::vector<Diagnostics>& ds) {
  std::string s = "[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    s += (i ? ", " : "") + Json()
                               .num("mean_ssh", ds[i].mean_ssh)
                               .num("mean_temperature",
                                    ds[i].mean_temperature)
                               .num("kinetic_energy", ds[i].kinetic_energy)
                               .dump();
  }
  return s + "]";
}

/// Largest |a - b| over max |b| across the gathered global fields.
double field_difference(const std::vector<util::Field>& a,
                        const std::vector<util::Field>& b) {
  double worst = 0.0;
  for (std::size_t q = 0; q < a.size() && q < b.size(); ++q) {
    double diff = 0.0, scale = 0.0;
    for (std::size_t n = 0; n < a[q].size(); ++n) {
      diff = std::max(diff, std::abs(a[q].data()[n] - b[q].data()[n]));
      scale = std::max(scale, std::abs(b[q].data()[n]));
    }
    worst = std::max(worst, ratio(diff, scale));
  }
  return worst;
}

/// Largest difference between two diagnostics sets, relative to the
/// reference value; mean SSH, which is conserved near zero, is compared
/// in metres (its scale floor is 1 m).
double diagnostics_difference(const std::vector<Diagnostics>& a,
                              const std::vector<Diagnostics>& b) {
  auto scaled = [](double x, double ref, double floor) {
    return std::abs(x - ref) / std::max(std::abs(ref), floor);
  };
  double worst = a.size() == b.size() ? 0.0 : INFINITY;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    worst = std::max({worst, scaled(a[i].mean_ssh, b[i].mean_ssh, 1.0),
                      scaled(a[i].mean_temperature, b[i].mean_temperature,
                             0.0),
                      scaled(a[i].kinetic_energy, b[i].kinetic_energy, 0.0)});
  return worst;
}

/// Agreement of a multi-rank workload with its 1-rank twin: reductions
/// sum in a different order at each rank count, so round-off only.
constexpr double kRankAgreementTolerance = 1e-9;

int run_main(const util::Cli& cli) {
  const std::string name = cli.get("workload", "");
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (name == k.name) w = &k;
  MINIPOP_REQUIRE(w != nullptr, "unknown --workload=" << name);
  const long long seed_arg = std::stoll(cli.get("seed", "2015"));
  MINIPOP_REQUIRE(seed_arg >= 0, "--seed must be >= 0");
  const int rounds = cli.get_int("rounds", 20);
  const bool trace = cli.get_int("trace", 0) != 0;
  MINIPOP_REQUIRE(rounds >= 2, "--rounds >= 2 required");

  std::vector<double> calib;
  for (int i = 0; i < 15; ++i) calib.push_back(calibration_ms());

  RunSettings rs;
  rs.workload = *w;
  rs.seed = static_cast<std::uint64_t>(seed_arg);
  rs.bathymetry_seed = std::stoull(cli.get("bathymetry-seed", "2015"));
  rs.ranks = w->ranks;
  rs.halo_depth = w->halo_depth;
  rs.rounds = rounds;
  rs.trace = trace;
  WorkloadRun run(rs);
  run.run();

  // A multi-rank workload is checked (and, traced, timed) against the
  // same configuration on one rank, at the resolved halo depth.
  std::unique_ptr<WorkloadRun> single;
  if (w->ranks > 1) {
    RunSettings one = rs;
    one.ranks = 1;
    one.halo_depth = run.resolved_halo_depth;
    one.throwaway_setups = false;
    one.rounds = trace ? std::max(2, rounds / 4) : 0;
    one.trace = false;
    single = std::make_unique<WorkloadRun>(one);
    single->run();
  }

  for (int i = 0; i < 15; ++i) calib.push_back(calibration_ms());

  // --- checks ---
  const Totals tot = round_totals(run);
  bool bitwise = true, exact = true;
  long unconverged = 0, member_solves = 0;
  for (const RankOut& r : run.ranks()) {
    bitwise = bitwise && r.rounds_bitwise;
    exact = exact && r.counts_exact;
  }
  for (const Counts& c : run.ranks()[0].rounds) {
    unconverged += c.unconverged;
    member_solves += c.member_solves;
  }
  const double tol = solver::SolverOptions().rel_tolerance;
  const bool residual_ok = run.max_rel_residual <= tol;
  double rank_field_diff = 0.0, rank_diag_diff = 0.0;
  bool ranks_agree = true;
  if (single) {
    rank_field_diff =
        field_difference(run.global_expected, single->global_expected);
    rank_diag_diff =
        diagnostics_difference(run.diag_untraced, single->diag_untraced);
    ranks_agree = rank_field_diff <= kRankAgreementTolerance &&
                  rank_diag_diff <= kRankAgreementTolerance;
  }

  Json checks;
  checks.boolean("all_converged", unconverged == 0)
      .boolean("residual_within_tolerance", residual_ok)
      .num("max_relative_residual", run.max_rel_residual)
      .num("tolerance", tol)
      .boolean("rounds_bitwise", bitwise)
      .boolean("counts_exact", exact)
      .boolean("traced_diagnostics_identical",
               run.diag_untraced == run.diag_traced);
  if (single)
    checks.boolean("ranks_agree", ranks_agree)
        .num("rank_field_rel_diff", rank_field_diff)
        .num("rank_diagnostics_rel_diff", rank_diag_diff)
        .num("rank_tolerance", kRankAgreementTolerance);

  // --- metrics ---
  const int nm = run.members();
  const double round_days =
      nm * kStepsPerRound * run.dt / model::kSecondsPerDay;
  const double untraced_round = estimate(run.untraced_round_s);
  Json metrics;
  if (!trace) {
    add_metric(metrics, "sim_days_per_s", round_days / untraced_round,
               "day/s");
    add_metric(metrics, "setup_s", estimate(run.setup_s), "s");
    add_metric(metrics, "peak_rss_mb", run.peak_rss_live_mb, "MB");
    add_metric(metrics, "solve_ok_frac",
               1.0 - ratio(static_cast<double>(unconverged),
                           static_cast<double>(member_solves)),
               "fraction");
  } else {
    const bench::SpanLog& log = run.spans();
    auto med_ms = [&](const char* span) {
      return 1e3 * bench::median(log.durations(span));
    };
    auto sum = [&](const char* span) {
      double s = 0.0;
      for (double d : log.durations(span)) s += d;
      return s;
    };
    auto micro_us = [&](const char* key) {
      return 1e6 * bench::median(run.micro_s.at(key));
    };
    const double steps = kStepsPerRound;
    const double solve_s = sum("solver.solve");
    const double solve_calls = log.durations("solver.solve").size();
    const double lockstep_per_solve =
        ratio(tot.lockstep_iterations, tot.member_solves / double(nm));
    add_metric(metrics, "model.step_begin_ms", med_ms("model.step_begin"),
               "ms");
    add_metric(metrics, "model.step_finish_ms", med_ms("model.step_finish"),
               "ms");
    add_metric(metrics, "model.tracer_ms", med_ms("model.tracer"), "ms");
    add_metric(metrics, "model.solve_share",
               ratio(solve_s, sum("model.step")), "fraction");
    add_metric(metrics, "solver.solve_ms", med_ms("solver.solve"), "ms");
    add_metric(metrics, "solver.us_per_iter",
               1e6 * ratio(solve_s, solve_calls * lockstep_per_solve), "us");
    add_metric(metrics, "solver.iters_per_solve",
               ratio(tot.member_iterations, tot.member_solves), "count");
    add_metric(metrics, "solver.flops_per_step", tot.solve.flops / steps,
               "count");
    add_metric(metrics, "solver.active_frac",
               ratio(tot.solve.active_points, tot.solve.swept_points),
               "fraction");
    add_metric(metrics, "solver.residual_us", micro_us("solver.residual"),
               "us");
    add_metric(metrics, "solver.redundant_flop_frac",
               ratio(tot.solve.redundant_flops, tot.solve.flops), "fraction");
    const double apply_us = micro_us("precond.apply");
    const double batch_us = micro_us("precond.apply_batch");
    // One preconditioner application per lockstep iteration; a batched
    // solve applies to all members at once.
    const double per_iter_apply_us = nm > 1 ? batch_us : apply_us;
    add_metric(metrics, "precond.apply_us", apply_us, "us");
    add_metric(metrics, "precond.share",
               ratio(per_iter_apply_us * 1e-6 * lockstep_per_solve,
                     ratio(solve_s, solve_calls)),
               "fraction");
    add_metric(metrics, "precond.apply_batch_us_per_member", batch_us / 8.0,
               "us");
    add_metric(metrics, "batch.lane_efficiency",
               ratio(tot.member_iterations,
                     double(nm) * tot.lockstep_iterations),
               "fraction");
    add_metric(metrics, "batch.members_per_halo_round",
               ratio(tot.solve0.halo_member_updates,
                     tot.solve0.halo_exchanges),
               "count");
    add_metric(metrics, "comm.halo_rounds_per_step",
               tot.step0.halo_exchanges / steps, "count");
    add_metric(metrics, "comm.msgs_per_step", tot.step.p2p_messages / steps,
               "count");
    add_metric(metrics, "comm.bytes_per_step", tot.step.p2p_bytes / steps,
               "B");
    add_metric(metrics, "comm.allreduces_per_step",
               tot.step0.allreduces / steps, "count");
    add_metric(metrics, "comm.halo_exchange_us",
               micro_us("comm.halo_exchange"), "us");
    add_metric(metrics, "comm.allreduce_us", micro_us("comm.allreduce"),
               "us");
    add_metric(metrics, "comm.wait_ms_per_step",
               1e3 * ratio(run.ranks()[0].wait.exposed_comm_seconds,
                           steps * run.traced_round_s.size()),
               "ms");
    const double traced_round = estimate(run.traced_round_s);
    add_metric(metrics, "comm.strong_scaling_eff",
               single ? ratio(estimate(single->untraced_round_s),
                              w->ranks * untraced_round)
                      : 1.0,
               "fraction");
    add_metric(metrics, "setup.grid_ms",
               1e3 * bench::median(run.setup_grid_s), "ms");
    add_metric(metrics, "setup.solver_ms",
               1e3 * bench::median(run.setup_solver_s), "ms");
    add_metric(metrics, "setup.lanczos_steps", run.lanczos_steps, "count");
    add_metric(metrics, "stats.record_ms",
               nm > 1 ? med_ms("stats.record")
                      : 1e3 * bench::median(run.micro_s.at("stats.record")),
               "ms");
    add_metric(metrics, "host.calib_ms", bench::median(calib), "ms");
    add_metric(metrics, "trace.overhead_frac",
               ratio(traced_round, untraced_round) - 1.0, "fraction");
  }

  // --- record ---
  const Workload& wl = *w;
  Json config;
  config.str("workload", wl.name)
      .integer("seed", seed_arg)
      .str("solver", run.solver_description)
      .integer("halo_depth", run.resolved_halo_depth)
      .integer("ranks", wl.ranks)
      .integer("batch", nm)
      .str("grid", "pop_1deg_spec(0.2) 64x77")
      .integer("nz", 4)
      .str("blocks", "12x12")
      .integer("active_blocks", run.active_blocks)
      .num("ocean_fraction", run.ocean_fraction)
      .num("dt_s", run.dt)
      .str("precision", "fp64")
      .num("tolerance", tol)
      .integer("spinup_steps", kSpinupSteps)
      .integer("steps_per_round", kStepsPerRound)
      .integer("rounds", rounds)
      .integer("setups", static_cast<long long>(run.setup_s.size()))
      .num("timing_trim_slowest", kTrimSlowest)
      .str("loop", nm > 1 ? "replay of the stats::run_ensemble lockstep loop"
                          : "replay of OceanModel::step");
  Json host;
  host.integer("nproc", online_cpus())
      .str("cpu", cpu_model())
      .integer("l2_kib", cache_kib(_SC_LEVEL2_CACHE_SIZE))
      .integer("l3_kib", cache_kib(_SC_LEVEL3_CACHE_SIZE));
  Json build;
  build.str("compiler", std::string("g++ ") + __VERSION__)
      .str("flags", BENCH_CXX_FLAGS);

  std::string series = "[";
  for (std::size_t i = 0; i < run.untraced_round_s.size(); ++i) {
    std::ostringstream os;
    os << std::setprecision(9) << 1e3 * run.untraced_round_s[i];
    series += (i ? ", " : "") + os.str();
  }
  series += "]";

  Json timing;
  timing.raw("untraced_round_ms",
             timing_json(run.untraced_round_s, 1e3))
      .raw("untraced_round_series_ms", series)
      .raw("step_ms", timing_json(run.step_s, 1e3))
      .raw("setup_s", timing_json(run.setup_s, 1.0))
      .raw("calib_ms", timing_json(calib, 1.0));
  if (trace) {
    timing.raw("traced_round_ms",
               timing_json(run.traced_round_s, 1e3));
    for (const char* span :
         {"model.step", "model.step_begin", "solver.solve",
          "model.step_finish", "model.tracer", "stats.record"})
      if (!run.spans().durations(span).empty())
        timing.raw(std::string(span) + "_ms",
                   timing_json(run.spans().durations(span), 1e3));
    for (const auto& [k, v] : run.micro_s)
      timing.raw(k + "_us", timing_json(v, 1e6));
    if (single)
      timing.raw("single_rank_round_ms",
                 timing_json(single->untraced_round_s, 1e3));
  }

  Json counts;
  counts.raw("round_step_counters", counters_json(tot.step))
      .raw("round_solve_counters", counters_json(tot.solve))
      .integer("round_member_iterations", tot.member_iterations)
      .integer("round_lockstep_iterations", tot.lockstep_iterations)
      .integer("round_member_solves", tot.member_solves)
      .integer("lanczos_steps", run.lanczos_steps);

  Json record;
  record.raw("config", config.dump())
      .raw("host", host.dump())
      .raw("build", build.dump())
      .raw("checks", checks.dump())
      .raw("counts", counts.dump())
      .raw("timing", timing.dump())
      .raw("diagnostics", diagnostics_json(run.diag_untraced))
      .integer("attempted", member_solves)
      .integer("failed", unconverged)
      .raw("metrics", metrics.dump());

  const std::string spans_path = cli.get("spans", "");
  if (trace && !spans_path.empty() && !run.spans().write(spans_path)) {
    std::cerr << "bench_e2e: cannot write " << spans_path << "\n";
    return 1;
  }
  std::cout << record.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(util::Cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
