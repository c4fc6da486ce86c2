// Resilience benchmark: the cost and the payoff of the detect → recover
// → fall back layer (BatchedResilientSolver in
// src/solver/batched_decorators.*, src/fault/*) and of the end-to-end
// integrity layer (DESIGN.md §12). Every solve is a single (width-1)
// solve of the one solver stack.
//
// Three experiments, printed as tables and written to
// BENCH_resilience.json — run from the repo root so the JSON lands
// there:
//
//   ./build-faults/bench/bench_resilience [--smoke] [output.json]
//
// 1. Guard overhead: raw solver vs resilience-decorated solver on
//    the same fault-free problem. The decorator adds one checkpoint copy
//    and one scalar agreement allreduce per solve; the acceptance target
//    is < 1% wall time.
// 1b. Integrity overhead: the same raw solver with every IntegrityOptions
//    knob at the production cadence (guarded reductions on, ABFT audit
//    every 20th convergence check, true-residual audit every 40th) vs
//    all-off. The < 2% acceptance gate is evaluated on the MODELED
//    overhead — both variants' exact operation counts priced through the
//    paper's alpha-beta-theta machine model at p=1024 — because the
//    counters are deterministic while wall-clock noise on a shared box
//    exceeds the budget being enforced. Measured wall time is still
//    reported for context. With --smoke the binary runs ONLY the
//    overhead experiments and exits nonzero when that gate (or a
//    campaign silent-wrong-answer, in full runs) is violated.
// 2. Fault campaign (needs -DMINIPOP_FAULTS=ON; skipped and marked in
//    the JSON otherwise): a matrix of injection site x fault rate x
//    solver (ChronGear, P-CSI, and P-CSI at halo depth 3 — "pcsi-d3",
//    the comm-avoiding schedule) over a 4-rank virtual-MPI team,
//    including the silent-data-
//    corruption sites the integrity layer exists for (halo wire bit
//    flips behind the CRC, stencil-coefficient flips caught by the ABFT
//    checksum, corrupted allreduce contributions caught by the guarded
//    duplicate). Each cell replays deterministic seeded faults and
//    reports the recovery rate (solves that still converged to
//    tolerance), the mean detection latency in iterations, and the
//    recovery actions taken. Silent wrong answers fail the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/fault/fault_injector.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/perf/machine.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/lanczos.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mf = minipop::fault;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

Problem make_problem(int nx, int ny, int block, int nranks,
                     std::uint64_t seed = 11) {
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  const double phi = mg::barotropic_phi(600.0);
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, phi);
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, /*periodic_x=*/false, p.stencil->mask(), block, block, nranks);
  mu::Xoshiro256 rng(seed);
  p.b_global = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

ms::EigenBounds lanczos_bounds_serial(const Problem& p) {
  mg::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                       p.stencil->periodic_x(), p.stencil->mask(),
                       p.stencil->nx(), p.stencil->ny(), 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(d1);
  ms::DistOperator a(*p.stencil, d1, 0);
  ms::DiagonalPreconditioner m(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  return ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
}

using SolverFactory =
    std::function<std::unique_ptr<ms::BatchedSolver>(int rank)>;

struct SolveRun {
  mu::Field x;
  ms::SolveStats stats;
  std::vector<ms::RecoveryEvent> events;
  bool threw = false;  ///< a rank escaped with an (unrecovered) exception
};

#if MINIPOP_FAULTS
/// One solve over `nranks` virtual ranks (1 = SerialComm) with a
/// diagonal preconditioner, on an operator with coefficient rim `rim`
/// (depth-k P-CSI needs k - 1); gathers the solution and rank 0's stats
/// and recovery log. Only the fault campaigns need it.
SolveRun run_with(const Problem& p, int nranks, const SolverFactory& make,
                  double recv_timeout_ms = 0.0, bool halo_crc = false,
                  int rim = 0) {
  SolveRun out;
  out.x = mu::Field(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  std::vector<ms::SolveStats> stats(nranks);
  mc::HaloExchanger halo(*p.decomp);
  halo.set_crc(halo_crc);
  auto body = [&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank(), rim);
    ms::DiagonalPreconditioner m(a);
    std::unique_ptr<ms::BatchedSolver> s = make(comm.rank());
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    stats[comm.rank()] = ms::solve_one(*s, comm, halo, a, m, b, x);
    x.store_global(out.x);  // disjoint interiors; no race
    if (comm.rank() == 0)
      if (auto* rs = dynamic_cast<ms::BatchedResilientSolver*>(s.get()))
        out.events = rs->events();
  };
  try {
    if (nranks == 1) {
      mc::SerialComm comm;
      body(comm);
    } else {
      mc::ThreadTeam team(nranks);
      if (recv_timeout_ms > 0.0) team.set_recv_timeout(recv_timeout_ms);
      team.run(body);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench] solve escaped: %s\n", e.what());
    out.threw = true;
  }
  out.stats = stats[0];
  return out;
}
#endif  // MINIPOP_FAULTS

ms::SolverOptions solve_options() {
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.check_frequency = 5;
  opt.divergence_factor = 1e4;
  return opt;
}

/// Production integrity cadence: cheap enough to leave on (< 2% wall
/// time, gated below), frequent enough to bound silent-corruption
/// exposure to ~100 iterations. Each ABFT audit costs one masked sum
/// sweep and each true-residual audit one operator apply, so the
/// intervals (in units of convergence checks) set the overhead directly.
ms::SolverOptions integrity_options() {
  ms::SolverOptions opt = solve_options();
  opt.integrity.guarded_reductions = true;
  opt.integrity.abft_interval = 20;
  opt.integrity.true_residual_interval = 40;
  return opt;
}

/// Halo depth of a campaign solver kind: "pcsi-d3" is P-CSI at depth 3.
int depth_of(const std::string& kind) { return kind == "pcsi-d3" ? 3 : 1; }

std::unique_ptr<ms::BatchedSolver> make_primary(const std::string& kind,
                                                ms::EigenBounds bounds,
                                                ms::SolverOptions opt) {
  if (kind == "cg") return std::make_unique<ms::BatchedChronGearSolver>(opt);
  opt.halo_depth = depth_of(kind);
  return std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
}

std::unique_ptr<ms::BatchedSolver> make_primary(const std::string& kind,
                                                ms::EigenBounds bounds) {
  return make_primary(kind, bounds, solve_options());
}

/// The production recovery chain: restart x2 → (P-CSI) re-estimate
/// bounds → ChronGear → diagonal-preconditioned PCG.
SolverFactory decorated(const std::string& kind, ms::EigenBounds bounds) {
  return [kind, bounds](int) -> std::unique_ptr<ms::BatchedSolver> {
    auto rs = std::make_unique<ms::BatchedResilientSolver>(
        make_primary(kind, bounds));
    if (kind != "cg")
      rs->add_fallback(
          std::make_unique<ms::BatchedChronGearSolver>(solve_options()));
    rs->add_fallback(std::make_unique<ms::BatchedPcgSolver>(solve_options()),
                     /*use_diagonal_precond=*/true);
    return rs;
  };
}

SolverFactory raw(const std::string& kind, ms::EigenBounds bounds) {
  return [kind, bounds](int) { return make_primary(kind, bounds); };
}

#if MINIPOP_FAULTS
/// Recovery chain with the integrity layer on: how the solver is meant
/// to run when silent data corruption is in the threat model.
SolverFactory decorated_integrity(const std::string& kind,
                                  ms::EigenBounds bounds) {
  return [kind, bounds](int) -> std::unique_ptr<ms::BatchedSolver> {
    const ms::SolverOptions opt = integrity_options();
    auto rs = std::make_unique<ms::BatchedResilientSolver>(
        make_primary(kind, bounds, opt));
    if (kind != "cg")
      rs->add_fallback(std::make_unique<ms::BatchedChronGearSolver>(opt));
    rs->add_fallback(std::make_unique<ms::BatchedPcgSolver>(opt),
                     /*use_diagonal_precond=*/true);
    return rs;
  };
}
#endif  // MINIPOP_FAULTS

#if MINIPOP_FAULTS
double max_rel_error(const mu::Field& a, const mu::Field& ref) {
  double scale = 0.0, err = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      err = std::max(err, std::abs(a(i, j) - ref(i, j)));
  return scale > 0 ? err / scale : err;
}
#endif  // MINIPOP_FAULTS

// --- experiment 1: guard overhead -------------------------------------

struct OverheadResult {
  std::string solver;
  double raw_ms = 0;        ///< best-of batch mean, baseline variant
  double decorated_ms = 0;  ///< best-of batch mean, measured variant
  double overhead = 0;      ///< median per-round ratio, in percent
  /// Overhead of the variant's exact operation counts priced through the
  /// paper's alpha-beta-theta machine model (percent). Deterministic —
  /// this is what the < 2% integrity gate checks, because wall-clock
  /// noise on a shared box easily exceeds the budget being enforced.
  double modeled = 0;
  double overhead_pct() const { return overhead; }
};

/// Price a solve's counted operations with the paper's cost model at a
/// production-scale partition: theta per flop, alpha/beta per message
/// and byte, and a log2(p)-hop allreduce whose payload bytes ride each
/// hop. The ON/OFF *ratio* is what matters; the absolute constants
/// cancel out of it.
double modeled_seconds(const mc::CostCounters& c,
                       const minipop::perf::MachineProfile& m, int p) {
  const double hops = p > 1 ? std::log2(static_cast<double>(p)) : 0.0;
  return m.theta * static_cast<double>(c.flops) +
         static_cast<double>(c.p2p_messages) * m.alpha_p2p +
         static_cast<double>(c.p2p_bytes) * m.beta +
         static_cast<double>(c.allreduces) * hops * m.alpha_reduce(p) +
         static_cast<double>(c.allreduce_doubles) * 8.0 * hops * m.beta;
}

/// Time `base` vs `variant` in alternating batches. The per-solve cost
/// difference we care about is far below run-to-run noise, so each round
/// times both variants back to back (order swapped every round to cancel
/// slow drift) and the reported overhead is the MEDIAN of the per-round
/// ratios — robust against a stray slow batch that a min-of-mins would
/// attribute to whichever variant it hit.
void time_pair(const std::function<void()>& base,
               const std::function<void()>& variant, OverheadResult& res) {
  using clock = std::chrono::steady_clock;
  auto batch_ms = [](const std::function<void()>& fn, int reps) {
    const auto t0 = clock::now();
    for (int r = 0; r < reps; ++r) fn();
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
               .count() /
           reps;
  };
  base();  // warm caches before the first timed batch
  variant();
  const int reps = 8, rounds = 12;
  res.raw_ms = res.decorated_ms = 1e300;
  std::vector<double> ratio;
  for (int k = 0; k < rounds; ++k) {
    double a, b;
    if (k % 2 == 0) {
      a = batch_ms(base, reps);
      b = batch_ms(variant, reps);
    } else {
      b = batch_ms(variant, reps);
      a = batch_ms(base, reps);
    }
    res.raw_ms = std::min(res.raw_ms, a);
    res.decorated_ms = std::min(res.decorated_ms, b);
    ratio.push_back(b / a);
  }
  std::sort(ratio.begin(), ratio.end());
  const double med = 0.5 * (ratio[ratio.size() / 2 - 1] +
                            ratio[ratio.size() / 2]);
  res.overhead = (med - 1.0) * 100.0;
}

OverheadResult measure_overhead(const Problem& p, const std::string& kind,
                                ms::EigenBounds bounds) {
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(a);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);

  auto s_raw = raw(kind, bounds)(0);
  auto s_dec = decorated(kind, bounds)(0);
  auto solve_raw = [&] {
    x.fill(0.0);
    ms::solve_one(*s_raw, comm, halo, a, m, b, x);
  };
  auto solve_dec = [&] {
    x.fill(0.0);
    ms::solve_one(*s_dec, comm, halo, a, m, b, x);
  };

  OverheadResult res;
  res.solver = kind;
  time_pair(solve_raw, solve_dec, res);
  return res;
}

/// Integrity layer ON (production cadence) vs OFF, same raw solver.
/// `raw_ms` is integrity-off, `decorated_ms` is integrity-on.
OverheadResult measure_integrity_overhead(const Problem& p,
                                          const std::string& kind,
                                          ms::EigenBounds bounds) {
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator a(*p.stencil, *p.decomp, 0);
  ms::DiagonalPreconditioner m(a);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);

  auto s_off = make_primary(kind, bounds, solve_options());
  auto s_on = make_primary(kind, bounds, integrity_options());
  ms::SolveStats st_off, st_on;
  auto solve_off = [&] {
    x.fill(0.0);
    st_off = ms::solve_one(*s_off, comm, halo, a, m, b, x);
  };
  auto solve_on = [&] {
    x.fill(0.0);
    st_on = ms::solve_one(*s_on, comm, halo, a, m, b, x);
  };
  OverheadResult res;
  res.solver = kind;
  time_pair(solve_off, solve_on, res);
  // Deterministic modeled overhead from the exact operation counts,
  // priced at a production-scale partition on the Yellowstone profile.
  const minipop::perf::MachineProfile prof =
      minipop::perf::yellowstone_profile();
  const int ranks = 1024;
  res.modeled = (modeled_seconds(st_on.costs, prof, ranks) /
                     modeled_seconds(st_off.costs, prof, ranks) -
                 1.0) *
                100.0;
  return res;
}

// --- experiment 2: fault campaign -------------------------------------

struct CampaignCell {
  std::string site;
  std::string schedule;  ///< "event N" or "p=<rate>"
  std::string solver;
  int trials = 0;
  int recovered = 0;   ///< converged AND solution close to fault-free
  int typed_fail = 0;  ///< gave up with a typed FailureKind (no hang/lie)
  int silent = 0;      ///< converged but wrong answer — must stay 0
  double mean_detect_iters = 0;  ///< iterations burned in failed attempts
  std::vector<std::string> actions;  ///< distinct recovery actions seen
  double recovery_rate() const {
    return trials ? static_cast<double>(recovered) / trials : 0.0;
  }
};

#if MINIPOP_FAULTS

void note_actions(CampaignCell& cell, const SolveRun& run) {
  for (const auto& ev : run.events)
    if (std::find(cell.actions.begin(), cell.actions.end(), ev.action) ==
        cell.actions.end())
      cell.actions.push_back(ev.action);
}

/// Run `trials` decorated solves under `plan` (seed varied per trial)
/// and score them against the fault-free solution.
CampaignCell run_cell(const Problem& p, int nranks, const std::string& site,
                      const std::string& schedule, const std::string& kind,
                      ms::EigenBounds bounds, const mu::Field& clean,
                      mf::FaultPlan plan, int trials,
                      double recv_timeout_ms = 0.0,
                      const SolverFactory* factory = nullptr,
                      bool halo_crc = false) {
  CampaignCell cell;
  cell.site = site;
  cell.schedule = schedule;
  cell.solver = kind;
  cell.trials = trials;
  double detect_sum = 0;
  long detect_n = 0;
  for (int t = 0; t < trials; ++t) {
    plan.seed = 977 + 31 * static_cast<std::uint64_t>(t);
    SolveRun run;
    {
      mf::FaultScope scope(plan);
      run = run_with(p, nranks,
                     factory ? *factory : decorated(kind, bounds),
                     recv_timeout_ms, halo_crc, depth_of(kind) - 1);
    }
    note_actions(cell, run);
    for (const auto& ev : run.events) {
      detect_sum += ev.iterations;
      ++detect_n;
    }
    if (run.threw) continue;  // escaped exception: neither recovered nor typed
    if (run.stats.converged) {
      if (max_rel_error(run.x, clean) < 1e-4)
        ++cell.recovered;
      else
        ++cell.silent;
    } else if (run.stats.failure != ms::FailureKind::kNone) {
      ++cell.typed_fail;
    }
  }
  cell.mean_detect_iters = detect_n ? detect_sum / detect_n : 0.0;
  return cell;
}

std::vector<CampaignCell> run_campaign(const Problem& p,
                                       ms::EigenBounds bounds,
                                       const mu::Field& clean_cg,
                                       const mu::Field& clean_pcsi) {
  const int nranks = 4;
  std::vector<CampaignCell> cells;
  // Depth-3 P-CSI is bitwise depth-1 P-CSI: one clean answer serves both.
  auto clean_for = [&](const std::string& kind) -> const mu::Field& {
    return kind == "cg" ? clean_cg : clean_pcsi;
  };

  for (const std::string kind : {"cg", "pcsi", "pcsi-d3"}) {
    // Scheduled one-shot faults: deterministic worst cases.
    {
      mf::FaultRule r;
      r.site = mf::FaultSite::kSolverVector;
      r.rank = 1;
      r.trigger_event = 6;
      r.make_nan = true;
      cells.push_back(run_cell(p, nranks, "solver_vector_nan", "event 6",
                               kind, bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3));
    }
    {
      mf::FaultRule r;
      r.site = mf::FaultSite::kHaloPayload;
      r.rank = 1;
      // Mid-solve, when the exchanged vectors are nonzero — an exponent
      // flip then overflows in the stencil sweep instead of landing on
      // a still-zero entry where it would be benign.
      r.trigger_event = 40;
      r.bit = 62;
      cells.push_back(run_cell(p, nranks, "halo_bitflip", "event 40", kind,
                               bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3));
    }
    {
      mf::FaultRule r;
      r.site = mf::FaultSite::kMailbox;
      r.rank = 1;
      r.trigger_event = 6;
      r.mailbox = mf::MailboxAction::kDrop;
      cells.push_back(run_cell(p, nranks, "mailbox_drop", "event 6", kind,
                               bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3,
                               /*recv_timeout_ms=*/500.0));
    }
    {
      mf::FaultRule r;
      r.site = mf::FaultSite::kRankStall;
      r.rank = 2;
      r.trigger_event = 4;
      r.delay_ms = 30.0;
      cells.push_back(run_cell(p, nranks, "rank_stall", "event 4", kind,
                               bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3));
    }
    // --- silent-data-corruption sites (integrity layer required) ---
    // The integrity-enabled chain detects, types, and recovers each of
    // these; without it they would be silent wrong answers or hangs.
    const SolverFactory integ = decorated_integrity(kind, bounds);
    {
      // Low mantissa bit of a wire payload flipped after the CRC was
      // computed: numerically negligible, only the CRC trailer sees it.
      mf::FaultRule r;
      r.site = mf::FaultSite::kHaloBitFlip;
      r.rank = 1;
      r.trigger_event = 6;
      r.bit = 0;
      cells.push_back(run_cell(p, nranks, "halo_crc_bitflip", "event 6",
                               kind, bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3,
                               /*recv_timeout_ms=*/0.0, &integ,
                               /*halo_crc=*/true));
    }
    {
      // Exponent flip of one stored stencil coefficient: persistent
      // operator corruption, caught by the ABFT column-sum audit and
      // cured by repair_operator.
      mf::FaultRule r;
      r.site = mf::FaultSite::kCoeffBitFlip;
      r.rank = 1;
      r.trigger_event = 2;
      r.bit = 62;
      cells.push_back(run_cell(p, nranks, "coeff_bitflip", "event 2", kind,
                               bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3,
                               /*recv_timeout_ms=*/0.0, &integ));
    }
    {
      // One rank's contribution to a norm allreduce corrupted in flight:
      // the guarded duplicate cross-check catches the bitwise mismatch.
      mf::FaultRule r;
      r.site = mf::FaultSite::kReductionCorrupt;
      r.rank = 2;
      r.trigger_event = 1;
      cells.push_back(run_cell(p, nranks, "reduction_corrupt", "event 1",
                               kind, bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 3,
                               /*recv_timeout_ms=*/0.0, &integ));
    }
    // Probabilistic rates: every solver-vector sweep may flip a mantissa
    // bit. Several seeds per rate.
    for (const double rate : {0.002, 0.02}) {
      mf::FaultRule r;
      r.site = mf::FaultSite::kSolverVector;
      r.probability = rate;
      r.max_fires = 0;  // unlimited
      r.bit = 62;       // exponent flip: detectable, not silent
      char sched[32];
      std::snprintf(sched, sizeof sched, "p=%g", rate);
      cells.push_back(run_cell(p, nranks, "solver_vector_bitflip", sched,
                               kind, bounds, clean_for(kind),
                               mf::FaultPlan{}.add(r), 5));
    }
  }
  // P-CSI-only: corrupted Chebyshev interval, recovered by Lanczos
  // re-estimation.
  for (const std::string kind : {"pcsi", "pcsi-d3"}) {
    mf::FaultRule r;
    r.site = mf::FaultSite::kEigenBounds;
    r.trigger_event = 0;
    r.nu_scale = 1e-3;
    r.mu_scale = 1e-3;
    cells.push_back(run_cell(p, nranks, "eigen_bounds", "event 0", kind,
                             bounds, clean_pcsi, mf::FaultPlan{}.add(r), 3));
  }
  return cells;
}

#endif  // MINIPOP_FAULTS

// --- output ------------------------------------------------------------

bool write_json(const std::string& path, const Problem& p,
                const std::vector<OverheadResult>& overhead,
                const std::vector<OverheadResult>& integrity,
                const std::vector<CampaignCell>& cells) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n  \"bench\": \"resilience\",\n"
     << "  \"grid\": {\"nx\": " << p.decomp->nx_global()
     << ", \"ny\": " << p.decomp->ny_global() << "},\n"
     << "  \"faults_compiled_in\": " << (MINIPOP_FAULTS ? "true" : "false")
     << ",\n  \"guard_overhead\": [\n";
  for (std::size_t k = 0; k < overhead.size(); ++k) {
    const auto& o = overhead[k];
    os << "    {\"solver\": \"" << o.solver << "\", \"raw_ms\": " << o.raw_ms
       << ", \"decorated_ms\": " << o.decorated_ms
       << ", \"overhead_pct\": " << o.overhead_pct() << "}"
       << (k + 1 < overhead.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"integrity_overhead_gate_pct\": 2.0,\n"
     << "  \"integrity_overhead\": [\n";
  for (std::size_t k = 0; k < integrity.size(); ++k) {
    const auto& o = integrity[k];
    os << "    {\"solver\": \"" << o.solver
       << "\", \"off_ms\": " << o.raw_ms << ", \"on_ms\": " << o.decorated_ms
       << ", \"measured_overhead_pct\": " << o.overhead_pct()
       << ", \"modeled_overhead_pct\": " << o.modeled << "}"
       << (k + 1 < integrity.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"campaign\": [\n";
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const auto& c = cells[k];
    os << "    {\"site\": \"" << c.site << "\", \"schedule\": \""
       << c.schedule << "\", \"solver\": \"" << c.solver
       << "\", \"trials\": " << c.trials << ", \"recovered\": " << c.recovered
       << ", \"typed_failures\": " << c.typed_fail
       << ", \"silent_wrong\": " << c.silent
       << ", \"recovery_rate\": " << c.recovery_rate()
       << ", \"mean_detect_iters\": " << c.mean_detect_iters
       << ", \"actions\": [";
    for (std::size_t a = 0; a < c.actions.size(); ++a)
      os << "\"" << c.actions[a] << "\""
         << (a + 1 < c.actions.size() ? ", " : "");
    os << "]}" << (k + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.flush();
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] =
      minipop::bench::parse_bench_args(argc, argv, "BENCH_resilience.json",
                                       true);
  std::printf("== bench resilience: guard + integrity overhead%s ==\n\n",
              smoke ? " (smoke)" : " + fault campaign");

  // One problem for everything: big enough that a solve does real work,
  // small enough that the ~50-cell campaign stays under a minute.
  Problem p = make_problem(96, 72, 24, /*nranks=*/1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);

  // --- guard overhead (serial, fault-free) ---
  std::vector<OverheadResult> overhead;
  for (const std::string kind : {"cg", "pcsi"}) {
    overhead.push_back(measure_overhead(p, kind, bounds));
    const auto& o = overhead.back();
    std::printf("%-10s raw %8.3f ms  decorated %8.3f ms  overhead %+.2f%%\n",
                o.solver.c_str(), o.raw_ms, o.decorated_ms,
                o.overhead_pct());
  }

  // --- integrity overhead (serial, fault-free): modeled gate < 2% ---
  constexpr double kIntegrityGatePct = 2.0;
  std::vector<OverheadResult> integrity;
  bool gate_ok = true;
  std::printf("\n");
  for (const std::string kind : {"cg", "pcsi"}) {
    integrity.push_back(measure_integrity_overhead(p, kind, bounds));
    const auto& o = integrity.back();
    const bool ok = o.modeled < kIntegrityGatePct;
    gate_ok = gate_ok && ok;
    std::printf(
        "%-10s integrity off %8.3f ms  on %8.3f ms  measured %+.2f%%  "
        "modeled %+.2f%%  %s\n",
        o.solver.c_str(), o.raw_ms, o.decorated_ms, o.overhead_pct(),
        o.modeled, ok ? "ok" : "OVER BUDGET");
  }

  std::vector<CampaignCell> cells;
  int silent_total = 0;
#if MINIPOP_FAULTS
  if (!smoke) {
    // --- fault campaign (4-rank team) ---
    Problem pc = make_problem(48, 36, 12, /*nranks=*/4);
    const ms::EigenBounds cb = lanczos_bounds_serial(pc);
    const SolveRun clean_cg = run_with(pc, 4, decorated("cg", cb));
    const SolveRun clean_pcsi = run_with(pc, 4, decorated("pcsi", cb));
    std::printf("\n%-22s %-10s %-7s %7s %9s %7s %8s\n", "site", "schedule",
                "solver", "trials", "recovered", "typed", "detect");
    cells = run_campaign(pc, cb, clean_cg.x, clean_pcsi.x);
    for (const auto& c : cells) {
      std::printf("%-22s %-10s %-7s %7d %9d %7d %8.1f\n", c.site.c_str(),
                  c.schedule.c_str(), c.solver.c_str(), c.trials,
                  c.recovered, c.typed_fail, c.mean_detect_iters);
      silent_total += c.silent;
    }
    std::printf("\nsilent wrong answers across the matrix: %d (must be 0)\n",
                silent_total);
  }
#else
  if (!smoke)
    std::printf(
        "\nfault campaign skipped: rebuild with -DMINIPOP_FAULTS=ON\n");
#endif

  if (!write_json(json_path, p, overhead, integrity, cells)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: modeled integrity-on overhead exceeds %.1f%% budget\n",
                 kIntegrityGatePct);
    return 1;
  }
  if (silent_total != 0) {
    std::fprintf(stderr,
                 "FAIL: %d silent wrong answers in the fault campaign\n",
                 silent_total);
    return 1;
  }
  return 0;
}
