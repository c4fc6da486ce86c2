#include "src/solver/batched_solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "src/fault/fault_injector.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/integrity.hpp"
#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

/// Member bookkeeping shared by the batched solvers. A batch keeps its
/// width and member order for the whole solve, so every array is
/// indexed by the member's position in the caller's batch; a frozen
/// member rides along masked until the solve ends.
struct BatchControl {
  BatchControl(const SolverOptions& options, int width)
      : opt(options), auditor(options), nb(width) {}

  const SolverOptions& opt;
  BatchIntegrityAuditor auditor;  // one per solve: owns the audit cadence
  const int nb;
  BatchSolveStats out;
  std::vector<double> b_norm2;
  std::vector<double> threshold2;
  std::vector<ConvergenceGuard> guards;
  /// Member froze without a residual norm in hand (kMaxIters,
  /// kNanDetected, kBreakdown); stamp its relative residual from its
  /// frozen r plane at the end of the solve.
  std::vector<unsigned char> needs_stamp;
  std::vector<unsigned char> active;    // still iterating
  int n_active = 0;
  // Per-check scratch.
  std::vector<int> bad;                 // guarded-reduction mismatches
  std::vector<unsigned char> accept;    // checked norm meets tolerance
  std::vector<FailureKind> audit;       // integrity-audit verdicts

  void freeze(int m, bool converged, double rel, FailureKind failure) {
    BatchMemberStats& ms = out.members[m];
    ms.converged = converged;
    ms.relative_residual = rel;
    ms.failure = failure;
    active[m] = 0;
    --n_active;
  }
};

/// ||b_m||² for every member with ONE vector allreduce; zero-RHS members
/// resolve immediately (x_m = 0, converged). Returns the initialized
/// control block.
BatchControl init_control(const SolverOptions& opt, comm::Communicator& comm,
                          const DistOperator& a, const comm::DistFieldBatch& b,
                          comm::DistFieldBatch& x) {
  const int nb = b.nb();
  BatchControl ctl(opt, nb);
  ctl.out.members.resize(nb);
  ctl.b_norm2.assign(nb, 0.0);
  ctl.threshold2.assign(nb, 0.0);
  ctl.guards.reserve(nb);
  ctl.needs_stamp.assign(nb, 0);
  ctl.active.assign(nb, 1);
  ctl.n_active = nb;

  a.local_dot_batch(comm, b, b, ctl.b_norm2.data());
  std::vector<int> bad;
  std::vector<unsigned char> bad_member(nb, 0);
  if (allreduce_sum_guarded(comm, opt.integrity,
                            std::span<double>(ctl.b_norm2.data(), nb), &bad))
    for (int i : bad) bad_member[i] = 1;
  for (int m = 0; m < nb; ++m) {
    ctl.guards.emplace_back(opt);
    ctl.threshold2[m] =
        opt.rel_tolerance * opt.rel_tolerance * ctl.b_norm2[m];
    if (bad_member[m]) {
      // The member's ||b||² — and with it its convergence threshold —
      // is untrustworthy: fail the member before it iterates. Its x
      // plane keeps the caller's initial guess.
      ctl.out.members[m].failure = FailureKind::kCorruptReduction;
      ctl.active[m] = 0;
      --ctl.n_active;
      continue;
    }
    if (ctl.b_norm2[m] == 0.0) {
      fill_member(x, m, 0.0);
      ctl.out.members[m].converged = true;
      ctl.active[m] = 0;
      --ctl.n_active;
    }
  }
  return ctl;
}

/// Copy a depth-k P-CSI solve's deep-halo working solution back to the
/// caller's batch: same halo width keeps the full-plane copy (halo
/// freshness carries over), a wider working halo copies the interior
/// (the caller's halos are stale either way after a depth-k solve).
void flush_member(comm::DistFieldBatch& x_caller, int m,
                  const comm::DistFieldBatch& xw) {
  if (x_caller.halo() == xw.halo())
    x_caller.copy_member_from(m, xw, m);
  else
    x_caller.copy_member_interior_from(m, xw, m);
}

/// The per-iteration vector allreduce of the cores: `sums` holds groups
/// of nb per-member partial sums and is reduced in place through the
/// optional duplication guard. A mismatched element poisons its member's
/// scalars, so that member freezes kCorruptReduction; its residual is
/// stamped later from its r plane, which reduction corruption does not
/// touch.
void reduce_guarded(BatchControl& ctl, comm::Communicator& comm,
                    std::span<double> sums) {
  ctl.bad.clear();
  if (!allreduce_sum_guarded(comm, ctl.opt.integrity, sums, &ctl.bad))
    return;
  for (int i : ctl.bad) {
    const int m = i % ctl.nb;
    if (!ctl.active[m]) continue;
    ctl.needs_stamp[m] = 1;
    ctl.freeze(m, false, 0.0, FailureKind::kCorruptReduction);
  }
}

/// The convergence check at iteration k, for every still-active member;
/// `norm2[m]` is member m's reduced ||r||². The integrity audits due at
/// this check run before any accepting norm freezes a member as
/// converged; the recurrence-vs-true-residual drift audit applies only
/// when r is a recurrence (`r_is_true` false: ChronGear and PCG; P-CSI's
/// r is b - Ax). Then each member records its relative residual, and an
/// audit failure freezes it, an accepting norm converges it, or else its
/// guard may fail it. A guard freeze needs no pending stamp: the checked
/// norm is the member's final residual.
void check_members(BatchControl& ctl, comm::Communicator& comm,
                   const comm::HaloExchanger& halo, const DistOperator& a,
                   const comm::DistFieldBatch& b,
                   const comm::DistFieldBatch& r, comm::DistFieldBatch& x,
                   int k, const double* norm2, bool r_is_true) {
  ctl.accept.assign(ctl.nb, 0);
  ctl.audit.assign(ctl.nb, FailureKind::kNone);
  bool any_accept = false;
  for (int m = 0; m < ctl.nb; ++m) {
    if (ctl.active[m] && norm2[m] <= ctl.threshold2[m]) {
      ctl.accept[m] = 1;
      any_accept = true;
    }
  }
  if (ctl.opt.integrity.any_solver_check())
    ctl.auditor.at_check(comm, halo, a, b, r, x, ctl.b_norm2.data(),
                         ctl.active.data(), norm2, r_is_true,
                         ctl.accept.data(), any_accept, ctl.audit.data());

  for (int m = 0; m < ctl.nb; ++m) {
    if (!ctl.active[m]) continue;
    const double rel = std::sqrt(norm2[m] / ctl.b_norm2[m]);
    if (ctl.opt.record_residuals)
      ctl.out.members[m].residual_history.emplace_back(k, rel);
    if (ctl.audit[m] != FailureKind::kNone) {
      ctl.needs_stamp[m] = 1;
      ctl.freeze(m, false, 0.0, ctl.audit[m]);
      continue;
    }
    if (ctl.accept[m]) {
      ctl.freeze(m, true, rel, FailureKind::kNone);
      continue;
    }
    const FailureKind f = ctl.guards[m].check(rel);
    if (f != FailureKind::kNone) ctl.freeze(m, false, rel, f);
  }
}

/// Final bookkeeping shared by the solvers: members still iterating
/// exhaust the iteration budget (kMaxIters), and every member frozen
/// without a norm in hand gets its relative residual stamped from its
/// (frozen or deterministically recomputed) r plane. One extra vector
/// allreduce, only when a stamp is pending; bit-equal per member at
/// every batch width because the dot kernel keeps the width-1
/// accumulation order per member and vector allreduces combine
/// element-wise.
void finish(BatchControl& ctl, comm::Communicator& comm,
            const DistOperator& a, const comm::DistFieldBatch& r,
            std::vector<double>& sums) {
  bool any = false;
  for (int m = 0; m < ctl.nb; ++m) {
    if (ctl.active[m]) {
      ctl.out.members[m].failure = FailureKind::kMaxIters;
      ctl.needs_stamp[m] = 1;
    }
    any = any || ctl.needs_stamp[m] != 0;
  }
  if (!any) return;
  a.local_dot_batch(comm, r, r, sums.data());
  comm.allreduce(std::span<double>(sums.data(), ctl.nb),
                 comm::ReduceOp::kSum);
  for (int m = 0; m < ctl.nb; ++m)
    if (ctl.needs_stamp[m])
      ctl.out.members[m].relative_residual =
          std::sqrt(sums[m] / ctl.b_norm2[m]);
}

}  // namespace

// ---------------------------------------------------------------------------
// Batched P-CSI

BatchedPcsiSolver::BatchedPcsiSolver(EigenBounds bounds,
                                     const SolverOptions& options)
    : opt_(options) {
  set_bounds(bounds);
}

void BatchedPcsiSolver::set_bounds(EigenBounds bounds) {
  MINIPOP_REQUIRE(bounds.nu > 0.0 && bounds.mu > bounds.nu,
                  "invalid eigenvalue interval [" << bounds.nu << ", "
                                                  << bounds.mu << "]");
  bounds_ = bounds;
}

BatchSolveStats BatchedPcsiSolver::solve(comm::Communicator& comm,
                                         const comm::HaloExchanger& halo,
                                         const DistOperator& a,
                                         Preconditioner& m,
                                         const comm::DistFieldBatch& b,
                                         comm::DistFieldBatch& x,
                                         comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(b.compatible_with(x), "batched pcsi: b/x mismatch");
  // Iterations per halo exchange (DESIGN.md §13). Only a pointwise
  // preconditioner applies on the grown regions the schedule sweeps.
  const int depth =
      m.pointwise() ? std::min(std::max(opt_.halo_depth, 1),
                               a.decomposition().max_halo_width())
                    : 1;
  MINIPOP_REQUIRE(a.rim() >= depth - 1,
                  "pcsi at halo depth " << depth
                                        << " needs an operator built with rim "
                                        << depth - 1 << ", got rim "
                                        << a.rim());
  const auto snapshot = comm.costs().counters();
  const int nb = b.nb();
  const int cf = opt_.check_frequency;

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  // Chebyshev constants are member-independent: one shared recurrence.
  EigenBounds eb = bounds_;
  fault::hook_eigen_bounds(a.rank(), &eb.nu, &eb.mu);
  const double alpha = 2.0 / (eb.mu - eb.nu);
  const double beta = (eb.mu + eb.nu) / (eb.mu - eb.nu);
  const double gamma = beta / alpha;
  double omega = 2.0 / gamma;  // omega_0

  // At depth k > 1 the solve runs on deep-halo copies of b and x: every
  // operand of a grown sweep needs a halo at least k wide. (Copied AFTER
  // init_control so zero-RHS members' fill(0) carries in.) b never
  // changes, so its rims are exchanged once per solve.
  std::optional<comm::DistFieldBatch> b_deep, x_deep;
  if (depth > 1) {
    const int hw = std::max(x.halo(), depth);
    b_deep.emplace(a.decomposition(), a.rank(), nb, hw);
    x_deep.emplace(a.decomposition(), a.rank(), nb, hw);
    for (int s = 0; s < nb; ++s) {
      b_deep->copy_member_interior_from(s, b, s);
      x_deep->copy_member_interior_from(s, x, s);
    }
    halo.exchange(comm, *b_deep);
    x_fresh = comm::HaloFreshness::kStale;
  }
  const comm::DistFieldBatch& bw = b_deep ? *b_deep : b;
  comm::DistFieldBatch& xw = x_deep ? *x_deep : x;

  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb, xw.halo());
  comm::DistFieldBatch rp(a.decomposition(), a.rank(), nb, xw.halo());
  comm::DistFieldBatch dx(a.decomposition(), a.rank(), nb, xw.halo());

  std::vector<double> ca(nb), cb(nb), cc(nb, 1.0);
  std::vector<double> sums(nb);

  // Initial step (Algorithm 2, step 2) up to x_1, gated so zero-RHS
  // members' solutions stay exactly at the early-out's fill(0).
  a.residual_batch(comm, halo, bw, xw, r, x_fresh);
  m.apply_batch(comm, r, rp);
  copy_interior(rp, dx);
  std::fill(ca.begin(), ca.end(), 1.0 / gamma);
  scale(comm, ca.data(), dx, a.span_plan(), ctl.active.data());
  std::fill(ca.begin(), ca.end(), 1.0);
  axpy(comm, ca.data(), dx, xw, a.span_plan(), ctl.active.data());

  // Iteration k updates x on the region r was last computed on — the
  // interior grown by e — and computes r_k one cell narrower. When e
  // reaches 0, ONE exchange refreshes x's rims, and dx's when a later
  // update reads them, for a group of w <= depth iterations. A group
  // never runs past a check or the last iteration, so every checked
  // residual lies on the interior; r never travels. At depth 1, w is 1:
  // one exchange of x per iteration.
  comm::DistFieldBatch* const group[2] = {&xw, &dx};
  int e = 0;
  for (int k = 0; k <= opt_.max_iterations; ++k) {
    if (k > 0) {
      ctl.out.iterations = k;
      for (int s = 0; s < nb; ++s)
        if (ctl.active[s]) ctl.out.members[s].iterations = k;

      omega = 1.0 / (gamma - omega / (4.0 * alpha * alpha));
      m.apply_batch_ext(comm, r, rp, e);
      std::fill(ca.begin(), ca.end(), omega);
      std::fill(cb.begin(), cb.end(), gamma * omega - 1.0);
      lincomb_axpy(comm, ca.data(), rp, cb.data(), dx, cc.data(), xw,
                   a.span_plan(e), ctl.active.data(), e);
    }
    if (e == 0) {
      const int next_check = std::max(cf, (k + cf - 1) / cf * cf);
      const int w = std::min(
          {depth, next_check - k + 1, opt_.max_iterations - k + 1});
      halo.exchange_group(
          comm, std::span<comm::DistFieldBatch* const>(group, w > 1 ? 2 : 1));
      e = w;
    }
    --e;
    if (k > 0 && k % cf == 0) {
      // One fused residual+norm sweep, one vector allreduce: member s
      // reduces bit-identically to the 1-element check reduction of
      // that member solved alone.
      a.residual_local_norm2_batch(comm, halo, bw, xw, r, sums.data(),
                                   comm::HaloFreshness::kFresh);
      reduce_guarded(ctl, comm, std::span<double>(sums));
      if (ctl.n_active == 0) break;
      check_members(ctl, comm, halo, a, bw, r, xw, k, sums.data(),
                    /*r_is_true=*/true);
      if (ctl.n_active == 0) break;
    } else {
      a.residual_batch(comm, halo, bw, xw, r, comm::HaloFreshness::kFresh,
                       e);
    }
  }

  finish(ctl, comm, a, r, sums);
  if (x_deep)
    for (int s = 0; s < nb; ++s) flush_member(x, s, *x_deep);
  ctl.out.costs = comm.costs().since(snapshot);
  return ctl.out;
}

// ---------------------------------------------------------------------------
// Batched ChronGear

BatchedChronGearSolver::BatchedChronGearSolver(const SolverOptions& options)
    : opt_(options) {}

BatchSolveStats BatchedChronGearSolver::solve(comm::Communicator& comm,
                                              const comm::HaloExchanger& halo,
                                              const DistOperator& a,
                                              Preconditioner& m,
                                              const comm::DistFieldBatch& b,
                                              comm::DistFieldBatch& x,
                                              comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(b.compatible_with(x), "batched chron_gear: b/x mismatch");
  const auto snapshot = comm.costs().counters();
  const int nb = b.nb();

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch rp(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch z(a.decomposition(), a.rank(), nb, x.halo());
  // s and p start at zero — the constructors zero-fill.
  comm::DistFieldBatch s_dir(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch p_dir(a.decomposition(), a.rank(), nb, x.halo());

  a.residual_batch(comm, halo, b, x, r, x_fresh);

  // Per-member recurrence scalars.
  std::vector<double> rho_old(nb, 1.0);
  std::vector<double> sigma_old(nb, 0.0);

  std::vector<double> ca(nb), cb(nb), cc(nb), cneg(nb);
  std::vector<double> sums(nb);
  std::vector<double> red(3 * static_cast<std::size_t>(nb));

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < nb; ++s)
      if (ctl.active[s]) ctl.out.members[s].iterations = k;

    m.apply_batch(comm, r, rp);
    a.apply_batch(comm, halo, rp, z);

    // All members' fused {rho, delta[, ||r||²]} partial sums ride ONE
    // grouped vector allreduce. Element-wise fixed-order combination
    // makes each member's scalars bit-equal at every batch width.
    const bool check = (k % opt_.check_frequency == 0);
    a.local_dot3_batch(comm, r, rp, z, check, red.data());
    reduce_guarded(ctl, comm,
                   std::span<double>(red.data(),
                                     static_cast<std::size_t>(check ? 3 : 2) *
                                         nb));
    if (ctl.n_active == 0) break;

    if (check) {
      check_members(ctl, comm, halo, a, b, r, x, k, red.data() + 2 * nb,
                    /*r_is_true=*/false);
      if (ctl.n_active == 0) break;
    }

    // Steps 10-12 per still-active member; rho/sigma pathologies freeze
    // the member.
    for (int s = 0; s < nb; ++s) {
      if (!ctl.active[s]) continue;
      const double rho = red[s];
      const double delta = red[nb + s];
      const double beta = rho / rho_old[s];
      const double sigma = delta - beta * beta * sigma_old[s];
      if (!ConvergenceGuard::finite(rho) ||
          !ConvergenceGuard::finite(sigma)) {
        ctl.needs_stamp[s] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kNanDetected);
        continue;
      }
      if (sigma == 0.0) {
        ctl.needs_stamp[s] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kBreakdown);
        continue;
      }
      const double alpha = rho / sigma;
      ca[s] = 1.0;
      cb[s] = beta;
      cc[s] = alpha;
      cneg[s] = -alpha;
      rho_old[s] = rho;
      sigma_old[s] = sigma;
    }
    if (ctl.n_active == 0) break;

    // Steps 13-16, fused pairwise into two sweeps (the direction update
    // and the iterate update that consumes it share one pass each);
    // frozen lanes masked out so their x and r planes stay exactly at
    // freeze state.
    lincomb_axpy(comm, ca.data(), rp, cb.data(), s_dir, cc.data(), x,
                 a.span_plan(), ctl.active.data());
    lincomb_axpy(comm, ca.data(), z, cb.data(), p_dir, cneg.data(), r,
                 a.span_plan(), ctl.active.data());
  }

  finish(ctl, comm, a, r, sums);
  ctl.out.costs = comm.costs().since(snapshot);
  return ctl.out;
}

// ---------------------------------------------------------------------------
// Batched PCG

BatchedPcgSolver::BatchedPcgSolver(const SolverOptions& options)
    : opt_(options) {}

BatchSolveStats BatchedPcgSolver::solve(comm::Communicator& comm,
                                        const comm::HaloExchanger& halo,
                                        const DistOperator& a,
                                        Preconditioner& m,
                                        const comm::DistFieldBatch& b,
                                        comm::DistFieldBatch& x,
                                        comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(b.compatible_with(x), "batched pcg: b/x mismatch");
  const auto snapshot = comm.costs().counters();
  const int nb = b.nb();

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch z(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch q(a.decomposition(), a.rank(), nb, x.halo());
  // p starts at zero — the constructor zero-fills.
  comm::DistFieldBatch p(a.decomposition(), a.rank(), nb, x.halo());

  a.residual_batch(comm, halo, b, x, r, x_fresh);

  std::vector<double> rho_old(nb, 1.0);
  std::vector<double> one(nb, 1.0), beta(nb), alpha(nb), neg_alpha(nb);
  std::vector<double> sums(nb);
  std::vector<double> red(2 * static_cast<std::size_t>(nb));

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < nb; ++s)
      if (ctl.active[s]) ctl.out.members[s].iterations = k;

    m.apply_batch(comm, r, z);

    // Reduction 1: rho = r·z, with ||r||² riding along at checks.
    const bool check = (k % opt_.check_frequency == 0);
    a.local_dot_batch(comm, r, z, red.data());
    if (check) a.local_dot_batch(comm, r, r, red.data() + nb);
    reduce_guarded(ctl, comm,
                   std::span<double>(red.data(),
                                     static_cast<std::size_t>(check ? 2 : 1) *
                                         nb));
    if (ctl.n_active == 0) break;
    if (check) {
      check_members(ctl, comm, halo, a, b, r, x, k, red.data() + nb,
                    /*r_is_true=*/false);
      if (ctl.n_active == 0) break;
    }

    // p = z + beta p, frozen lanes masked out here and below so their x
    // and r planes stay exactly at freeze state.
    for (int s = 0; s < nb; ++s)
      if (ctl.active[s]) beta[s] = red[s] / rho_old[s];
    lincomb(comm, one.data(), z, beta.data(), p, a.span_plan(),
            ctl.active.data());

    a.apply_batch(comm, halo, p, q);

    // Reduction 2: sigma = p·q; rho/sigma pathologies freeze the member.
    a.local_dot_batch(comm, p, q, sums.data());
    reduce_guarded(ctl, comm, std::span<double>(sums));
    for (int s = 0; s < nb; ++s) {
      if (!ctl.active[s]) continue;
      const double rho = red[s];
      const double sigma = sums[s];
      if (!ConvergenceGuard::finite(rho) ||
          !ConvergenceGuard::finite(sigma)) {
        ctl.needs_stamp[s] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kNanDetected);
        continue;
      }
      if (sigma == 0.0) {
        ctl.needs_stamp[s] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kBreakdown);
        continue;
      }
      alpha[s] = rho / sigma;
      neg_alpha[s] = -alpha[s];
      rho_old[s] = rho;
    }
    if (ctl.n_active == 0) break;

    axpy(comm, alpha.data(), p, x, a.span_plan(), ctl.active.data());
    axpy(comm, neg_alpha.data(), q, r, a.span_plan(), ctl.active.data());
  }

  finish(ctl, comm, a, r, sums);
  ctl.out.costs = comm.costs().since(snapshot);
  return ctl.out;
}

// ---------------------------------------------------------------------------
// Width-1 entry point

SolveStats solve_one(BatchedSolver& solver, comm::Communicator& comm,
                     const comm::HaloExchanger& halo, const DistOperator& a,
                     Preconditioner& m, const comm::DistField& b,
                     comm::DistField& x, comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(&b.decomposition() == &a.decomposition() &&
                      &x.decomposition() == &a.decomposition() && &b != &x,
                  "solve_one: b and x must be distinct fields on the "
                  "operator's decomposition");
  BatchSolveStats bs = solver.solve(comm, halo, a, m, b, x, x_fresh);
  BatchMemberStats& ms = bs.members[0];
  SolveStats out;
  out.iterations = ms.iterations;
  out.converged = ms.converged;
  out.relative_residual = ms.relative_residual;
  out.failure = ms.failure;
  out.costs = bs.costs;
  out.residual_history = std::move(ms.residual_history);
  return out;
}

}  // namespace minipop::solver
