#include "src/solver/batched_solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "src/fault/fault_injector.hpp"
#include "src/solver/comm_avoid.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/integrity.hpp"
#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

/// Slot bookkeeping shared by the batched solvers. Per-MEMBER state
/// (stats, ||b||², thresholds, guards) is indexed by the member's
/// original position in the caller's batch and survives retirement;
/// per-SLOT state (member_of, active) tracks the current, possibly
/// compacted, batch.
struct BatchControl {
  explicit BatchControl(const SolverOptions& options)
      : opt(options), auditor(options) {}

  const SolverOptions& opt;
  BatchIntegrityAuditor auditor;  // one per solve: owns the audit cadence
  BatchSolveStats out;
  std::vector<double> b_norm2;          // by original member
  std::vector<double> threshold2;       // by original member
  std::vector<ConvergenceGuard> guards; // by original member
  /// Member froze without a residual norm in hand (kMaxIters,
  /// kNanDetected, kBreakdown); stamp its relative residual from its
  /// frozen r plane at the next stamp point (retirement or solve end).
  std::vector<unsigned char> needs_stamp;  // by original member
  std::vector<int> member_of;           // slot -> original member
  std::vector<unsigned char> active;    // slot -> still iterating
  int n_active = 0;
  int cur_nb = 0;
  // Per-check scratch, by slot.
  std::vector<int> bad;                 // guarded-reduction mismatches
  std::vector<unsigned char> accept;    // checked norm meets tolerance
  std::vector<FailureKind> audit;       // integrity-audit verdicts

  void freeze(int s, bool converged, double rel, FailureKind failure) {
    BatchMemberStats& ms = out.members[member_of[s]];
    ms.converged = converged;
    ms.relative_residual = rel;
    ms.failure = failure;
    active[s] = 0;
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
  BatchControl ctl(opt);
  ctl.out.members.resize(nb);
  ctl.b_norm2.assign(nb, 0.0);
  ctl.threshold2.assign(nb, 0.0);
  ctl.guards.reserve(nb);
  ctl.needs_stamp.assign(nb, 0);
  ctl.member_of.resize(nb);
  ctl.active.assign(nb, 1);
  ctl.n_active = nb;
  ctl.cur_nb = nb;

  a.local_dot_batch(comm, b, b, ctl.b_norm2.data());
  std::vector<int> bad;
  std::vector<unsigned char> bad_slot(nb, 0);
  if (allreduce_sum_guarded(comm, opt.integrity,
                            std::span<double>(ctl.b_norm2.data(), nb), &bad))
    for (int i : bad) bad_slot[i] = 1;
  for (int m = 0; m < nb; ++m) {
    ctl.guards.emplace_back(opt);
    ctl.member_of[m] = m;
    ctl.threshold2[m] =
        opt.rel_tolerance * opt.rel_tolerance * ctl.b_norm2[m];
    if (bad_slot[m]) {
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

/// Stamp the relative residual of every member frozen without a norm in
/// hand, from its (frozen or deterministically recomputed) r plane. One
/// extra vector allreduce; bit-equal per member at every batch width
/// because the dot kernel keeps the width-1 accumulation order per
/// member and vector allreduces combine element-wise.
void stamp_pending(BatchControl& ctl, comm::Communicator& comm,
                   const DistOperator& a, const comm::DistFieldBatch& r,
                   std::vector<double>& sums) {
  bool any = false;
  for (int s = 0; s < ctl.cur_nb && !any; ++s)
    any = ctl.needs_stamp[ctl.member_of[s]] != 0;
  if (!any) return;
  a.local_dot_batch(comm, r, r, sums.data());
  comm.allreduce(std::span<double>(sums.data(), ctl.cur_nb),
                 comm::ReduceOp::kSum);
  for (int s = 0; s < ctl.cur_nb; ++s) {
    const int mm = ctl.member_of[s];
    if (!ctl.needs_stamp[mm]) continue;
    ctl.out.members[mm].relative_residual =
        std::sqrt(sums[s] / ctl.b_norm2[mm]);
    ctl.needs_stamp[mm] = 0;
  }
}

/// Member flush to the caller's batch, tolerant of the comm-avoiding
/// paths' wider working halos: same width keeps the historical
/// full-plane copy (halo freshness carries over), differing widths copy
/// the interior (the caller's halos are stale either way after a
/// comm-avoiding solve).
void flush_member(comm::DistFieldBatch& x_caller, int m,
                  const comm::DistFieldBatch& xw, int s) {
  if (x_caller.halo() == xw.halo())
    x_caller.copy_member_from(m, xw, s);
  else
    x_caller.copy_member_interior_from(m, xw, s);
}

/// The per-iteration vector allreduce of the cores: `sums` holds groups
/// of cur_nb per-slot partial sums and is reduced in place through the
/// optional duplication guard. A mismatched element poisons its slot's
/// scalars, so that member freezes kCorruptReduction; its residual is
/// stamped later from its r plane, which reduction corruption does not
/// touch.
void reduce_guarded(BatchControl& ctl, comm::Communicator& comm,
                    std::span<double> sums) {
  ctl.bad.clear();
  if (!allreduce_sum_guarded(comm, ctl.opt.integrity, sums, &ctl.bad))
    return;
  for (int i : ctl.bad) {
    const int s = i % ctl.cur_nb;
    if (!ctl.active[s]) continue;
    ctl.needs_stamp[ctl.member_of[s]] = 1;
    ctl.freeze(s, false, 0.0, FailureKind::kCorruptReduction);
  }
}

/// The convergence check at iteration k, for every still-active slot;
/// `norm2[s]` is slot s's reduced ||r||². The integrity audits due at
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
  ctl.accept.assign(ctl.cur_nb, 0);
  ctl.audit.assign(ctl.cur_nb, FailureKind::kNone);
  bool any_accept = false;
  for (int s = 0; s < ctl.cur_nb; ++s) {
    if (ctl.active[s] && norm2[s] <= ctl.threshold2[ctl.member_of[s]]) {
      ctl.accept[s] = 1;
      any_accept = true;
    }
  }
  if (ctl.opt.integrity.any_solver_check())
    ctl.auditor.at_check(comm, halo, a, b, r, x, ctl.b_norm2.data(),
                         ctl.member_of.data(), ctl.active.data(), ctl.cur_nb,
                         norm2, r_is_true, ctl.accept.data(), any_accept,
                         ctl.audit.data());

  for (int s = 0; s < ctl.cur_nb; ++s) {
    if (!ctl.active[s]) continue;
    const int mm = ctl.member_of[s];
    const double rel = std::sqrt(norm2[s] / ctl.b_norm2[mm]);
    if (ctl.opt.record_residuals)
      ctl.out.members[mm].residual_history.emplace_back(k, rel);
    if (ctl.audit[s] != FailureKind::kNone) {
      ctl.needs_stamp[mm] = 1;
      ctl.freeze(s, false, 0.0, ctl.audit[s]);
      continue;
    }
    if (ctl.accept[s]) {
      ctl.freeze(s, true, rel, FailureKind::kNone);
      continue;
    }
    const FailureKind f = ctl.guards[mm].check(rel);
    if (f != FailureKind::kNone) ctl.freeze(s, false, rel, f);
  }
}

bool should_retire(const BatchControl& ctl) {
  const double f = ctl.opt.batch_retire_fraction;
  return f > 0.0 && ctl.n_active > 0 && ctl.n_active < ctl.cur_nb &&
         static_cast<double>(ctl.n_active) <= f * ctl.cur_nb;
}

/// Retirement compaction: flush every slot's solution plane back to the
/// caller's batch, then migrate the survivors (b, x and the solver's
/// carried fields) into freshly allocated width-n_active batches and
/// reallocate the per-iteration scratch fields. Pure data movement —
/// no member's arithmetic changes, only the lane count.
void compact(BatchControl& ctl, comm::Communicator& comm,
             const DistOperator& a, comm::DistFieldBatch& x_caller,
             const comm::DistFieldBatch*& bw,
             std::unique_ptr<comm::DistFieldBatch>& b_own,
             comm::DistFieldBatch*& xw,
             std::unique_ptr<comm::DistFieldBatch>& x_own,
             comm::DistFieldBatch& r,
             const std::vector<comm::DistFieldBatch*>& carried,
             const std::vector<comm::DistFieldBatch*>& scratch,
             std::vector<double>& sums, int work_halo) {
  // Frozen failures lose their r planes below; stamp them first.
  stamp_pending(ctl, comm, a, r, sums);

  if (xw != &x_caller)
    for (int s = 0; s < ctl.cur_nb; ++s)
      flush_member(x_caller, ctl.member_of[s], *xw, s);

  std::vector<int> keep;
  keep.reserve(ctl.n_active);
  for (int s = 0; s < ctl.cur_nb; ++s)
    if (ctl.active[s]) keep.push_back(s);
  const int n_new = static_cast<int>(keep.size());
  const auto& decomp = x_caller.decomposition();
  const int rank = x_caller.rank();
  const int halo = work_halo;

  auto nb_own =
      std::make_unique<comm::DistFieldBatch>(decomp, rank, n_new, halo);
  auto nx_own =
      std::make_unique<comm::DistFieldBatch>(decomp, rank, n_new, halo);
  for (int t = 0; t < n_new; ++t) {
    nb_own->copy_member_from(t, *bw, keep[t]);
    nx_own->copy_member_from(t, *xw, keep[t]);
  }
  b_own = std::move(nb_own);
  x_own = std::move(nx_own);
  bw = b_own.get();
  xw = x_own.get();

  for (comm::DistFieldBatch* f : carried) {
    comm::DistFieldBatch nf(decomp, rank, n_new, halo);
    for (int t = 0; t < n_new; ++t) nf.copy_member_from(t, *f, keep[t]);
    *f = std::move(nf);
  }
  for (comm::DistFieldBatch* f : scratch)
    *f = comm::DistFieldBatch(decomp, rank, n_new, halo);

  std::vector<int> member_of(n_new);
  for (int t = 0; t < n_new; ++t) member_of[t] = ctl.member_of[keep[t]];
  ctl.member_of = std::move(member_of);
  ctl.active.assign(n_new, 1);
  ctl.cur_nb = n_new;
  ++ctl.out.retirements;
}

/// Final bookkeeping shared by the solvers: survivors exhaust the
/// iteration budget (kMaxIters), pending residual stamps are resolved,
/// and — if retirement migrated the batch — the compacted solution
/// planes flush back to the caller.
void finish(BatchControl& ctl, comm::Communicator& comm,
            const DistOperator& a, comm::DistFieldBatch& x_caller,
            comm::DistFieldBatch* xw, const comm::DistFieldBatch& r,
            std::vector<double>& sums) {
  for (int s = 0; s < ctl.cur_nb; ++s) {
    if (!ctl.active[s]) continue;
    const int mm = ctl.member_of[s];
    ctl.out.members[mm].failure = FailureKind::kMaxIters;
    ctl.needs_stamp[mm] = 1;
  }
  stamp_pending(ctl, comm, a, r, sums);
  if (xw != &x_caller)
    for (int s = 0; s < ctl.cur_nb; ++s)
      flush_member(x_caller, ctl.member_of[s], *xw, s);
}

}  // namespace

// ---------------------------------------------------------------------------
// Batched P-CSI

BatchedPcsiSolver::BatchedPcsiSolver(EigenBounds bounds,
                                     const SolverOptions& options)
    : opt_(options) {
  set_bounds(bounds);
}

BatchedPcsiSolver::~BatchedPcsiSolver() = default;

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
  if (opt_.halo_depth > 1 &&
      (m.name() == "diagonal" || m.name() == "identity") &&
      std::min(std::max(opt_.halo_depth, 1),
               a.decomposition().max_halo_width()) > 1)
    return solve_comm_avoid(comm, halo, a, m, b, x);
  const auto snapshot = comm.costs().counters();
  const int nb0 = b.nb();

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

  // Until the first retirement the solve runs directly on the caller's
  // planes; compaction migrates into the owned narrow batches.
  const comm::DistFieldBatch* bw = &b;
  comm::DistFieldBatch* xw = &x;
  std::unique_ptr<comm::DistFieldBatch> b_own, x_own;
  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch rp(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch dx(a.decomposition(), a.rank(), nb0, x.halo());

  std::vector<double> ca(nb0), cb(nb0), cc(nb0);
  std::vector<double> sums(nb0);

  // Initial step (Algorithm 2, step 2), gated so zero-RHS members'
  // solutions stay exactly at the early-out's fill(0).
  a.residual_batch(comm, halo, *bw, *xw, r, x_fresh);
  m.apply_batch(comm, r, rp);
  copy_interior(rp, dx);
  std::fill(ca.begin(), ca.end(), 1.0 / gamma);
  scale(comm, ca.data(), dx, a.span_plan(), ctl.active.data());
  std::fill(ca.begin(), ca.end(), 1.0);
  axpy(comm, ca.data(), dx, *xw, a.span_plan(), ctl.active.data());
  a.residual_batch(comm, halo, *bw, *xw, r);

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < ctl.cur_nb; ++s)
      if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;

    omega = 1.0 / (gamma - omega / (4.0 * alpha * alpha));

    m.apply_batch(comm, r, rp);
    std::fill(ca.begin(), ca.begin() + ctl.cur_nb, omega);
    std::fill(cb.begin(), cb.begin() + ctl.cur_nb, gamma * omega - 1.0);
    std::fill(cc.begin(), cc.begin() + ctl.cur_nb, 1.0);
    lincomb_axpy(comm, ca.data(), rp, cb.data(), dx, cc.data(), *xw,
                 a.span_plan(), ctl.active.data());

    if (k % opt_.check_frequency == 0) {
      // One fused residual+norm sweep, one CURRENT-WIDTH vector
      // allreduce: slot s reduces bit-identically to the 1-element
      // check reduction of that member solved alone.
      a.residual_local_norm2_batch(comm, halo, *bw, *xw, r, sums.data());
      reduce_guarded(ctl, comm, std::span<double>(sums.data(), ctl.cur_nb));
      if (ctl.n_active == 0) break;
      check_members(ctl, comm, halo, a, *bw, r, *xw, k, sums.data(),
                    /*r_is_true=*/true);
      if (ctl.n_active == 0) break;
      if (should_retire(ctl)) {
        compact(ctl, comm, a, x, bw, b_own, xw, x_own, r, {&r, &dx}, {&rp},
                sums, x.halo());
      }
    } else {
      a.residual_batch(comm, halo, *bw, *xw, r);
    }
  }

  finish(ctl, comm, a, x, xw, r, sums);
  ctl.out.costs = comm.costs().since(snapshot);
  return ctl.out;
}

// Communication-avoiding batched P-CSI (DESIGN.md §13): the lockstep
// loop above with the per-iteration exchanges grouped — one deep
// exchange of {x, dx, r} per group of up to `depth` iterations, the
// sweeps running on shrinking extended domains over the whole batch.
// Freeze decisions, retirement compactions and every member's iterates
// are bitwise identical to the depth-1 loop (the ghost arithmetic
// replays the neighbouring owners' operations on identical operands;
// the check norm separates the fused residual+norm sweep into
// residual + dot, which the kernel contract pins to the same bits).
BatchSolveStats BatchedPcsiSolver::solve_comm_avoid(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m, const comm::DistFieldBatch& b,
    comm::DistFieldBatch& x) {
  const auto snapshot = comm.costs().counters();
  const int nb0 = b.nb();

  const int depth = std::min(std::max(opt_.halo_depth, 1),
                             a.decomposition().max_halo_width());
  const CaPrecond kind = m.name() == "diagonal" ? CaPrecond::kDiagonal
                                                : CaPrecond::kIdentity;
  if (!ca_engine_ || ca_engine_op_ != &a || ca_engine_->width() != depth) {
    ca_engine_ = std::make_unique<CommAvoidEngine>(a, depth);
    ca_engine_op_ = &a;
  }
  const CommAvoidEngine& eng = *ca_engine_;

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  EigenBounds eb = bounds_;
  fault::hook_eigen_bounds(a.rank(), &eb.nu, &eb.mu);
  const double alpha = 2.0 / (eb.mu - eb.nu);
  const double beta = (eb.mu + eb.nu) / (eb.mu - eb.nu);
  const double gamma = beta / alpha;
  double omega = 2.0 / gamma;  // omega_0

  // Deep-halo working copies of the whole batch. Unlike the depth-1
  // path the solve never runs on the caller's planes: every operand of
  // the extended sweeps needs a ghost region at least `depth` wide.
  // (Copied AFTER init_control so zero-RHS members' fill(0) carries in.)
  const int hw = std::max(x.halo(), depth);
  auto b_own = std::make_unique<comm::DistFieldBatch>(a.decomposition(),
                                                      a.rank(), nb0, hw);
  auto x_own = std::make_unique<comm::DistFieldBatch>(a.decomposition(),
                                                      a.rank(), nb0, hw);
  for (int mb = 0; mb < nb0; ++mb) {
    b_own->copy_member_interior_from(mb, b, mb);
    x_own->copy_member_interior_from(mb, x, mb);
  }
  const comm::DistFieldBatch* bw = b_own.get();
  comm::DistFieldBatch* xw = x_own.get();
  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb0, hw);
  comm::DistFieldBatch rp(a.decomposition(), a.rank(), nb0, hw);
  comm::DistFieldBatch dx(a.decomposition(), a.rank(), nb0, hw);

  std::vector<double> ca(nb0), cb(nb0), cc(nb0);
  std::vector<double> sums(nb0);

  // b's deep ghosts feed every extended residual sweep and b never
  // changes: ONE exchange per solve (compaction's full-plane member
  // migration preserves the ghosts across retirements).
  halo.exchange(comm, *b_own);

  // Initial step (Algorithm 2, step 2), gated like the depth-1 path so
  // zero-RHS members' solutions stay exactly at the early-out's fill(0).
  a.residual_batch(comm, halo, *bw, *xw, r);
  m.apply_batch(comm, r, rp);
  copy_interior(rp, dx);
  std::fill(ca.begin(), ca.end(), 1.0 / gamma);
  scale(comm, ca.data(), dx, a.span_plan(), ctl.active.data());
  std::fill(ca.begin(), ca.end(), 1.0);
  axpy(comm, ca.data(), dx, *xw, a.span_plan(), ctl.active.data());
  a.residual_batch(comm, halo, *bw, *xw, r);

  int k = 1;
  while (k <= opt_.max_iterations) {
    // Group boundaries align with check iterations, so the checked r is
    // always the group's final interior residual.
    const int to_check =
        opt_.check_frequency - ((k - 1) % opt_.check_frequency);
    const int remaining = opt_.max_iterations - k + 1;
    const int g = std::min({depth, to_check, remaining});

    // Rebuilt every group: retirement compaction migrates the fields.
    comm::DistFieldBatch* const group[3] = {xw, &dx, &r};
    halo.exchange_group(comm, group);

    for (int j = 1; j <= g; ++j, ++k) {
      ctl.out.iterations = k;
      for (int s = 0; s < ctl.cur_nb; ++s)
        if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;

      omega = 1.0 / (gamma - omega / (4.0 * alpha * alpha));
      const int ept = g - j + 1;  // precond/update extension
      eng.precond_batch(comm, kind, r, rp, ept);
      std::fill(ca.begin(), ca.begin() + ctl.cur_nb, omega);
      std::fill(cb.begin(), cb.begin() + ctl.cur_nb, gamma * omega - 1.0);
      std::fill(cc.begin(), cc.begin() + ctl.cur_nb, 1.0);
      eng.update_batch(comm, ca.data(), rp, cb.data(), dx, cc.data(), *xw,
                       ctl.active.data(), ctl.n_active, ept);
      eng.residual_batch(comm, *bw, *xw, r, ept - 1);
    }
    const int k_last = k - 1;

    if (k_last % opt_.check_frequency == 0) {
      // r's interior IS the lockstep residual; one vector allreduce of
      // the per-member masked norms, as in the depth-1 check.
      a.local_dot_batch(comm, r, r, sums.data());
      reduce_guarded(ctl, comm, std::span<double>(sums.data(), ctl.cur_nb));
      if (ctl.n_active == 0) break;
      check_members(ctl, comm, halo, a, *bw, r, *xw, k_last, sums.data(),
                    /*r_is_true=*/true);
      if (ctl.n_active == 0) break;
      if (should_retire(ctl)) {
        compact(ctl, comm, a, x, bw, b_own, xw, x_own, r, {&r, &dx}, {&rp},
                sums, hw);
      }
    }
  }

  finish(ctl, comm, a, x, xw, r, sums);
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
  const int nb0 = b.nb();

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  const comm::DistFieldBatch* bw = &b;
  comm::DistFieldBatch* xw = &x;
  std::unique_ptr<comm::DistFieldBatch> b_own, x_own;
  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch rp(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch z(a.decomposition(), a.rank(), nb0, x.halo());
  // s and p start at zero — the constructors zero-fill.
  comm::DistFieldBatch s_dir(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch p_dir(a.decomposition(), a.rank(), nb0, x.halo());

  a.residual_batch(comm, halo, *bw, *xw, r, x_fresh);

  // Per-member recurrence scalars, indexed by ORIGINAL member id so
  // they survive retirement compactions.
  std::vector<double> rho_old(nb0, 1.0);
  std::vector<double> sigma_old(nb0, 0.0);

  std::vector<double> ca(nb0), cb(nb0), cc(nb0), cneg(nb0);
  std::vector<double> sums(nb0);
  std::vector<double> red(3 * static_cast<std::size_t>(nb0));

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < ctl.cur_nb; ++s)
      if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;

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
                                         ctl.cur_nb));
    if (ctl.n_active == 0) break;

    if (check) {
      check_members(ctl, comm, halo, a, *bw, r, *xw, k,
                    red.data() + 2 * ctl.cur_nb, /*r_is_true=*/false);
      if (ctl.n_active == 0) break;
    }

    // Steps 10-12 per still-active member; rho/sigma pathologies freeze
    // the member.
    for (int s = 0; s < ctl.cur_nb; ++s) {
      if (!ctl.active[s]) continue;
      const int mm = ctl.member_of[s];
      const double rho = red[s];
      const double delta = red[ctl.cur_nb + s];
      const double beta = rho / rho_old[mm];
      const double sigma = delta - beta * beta * sigma_old[mm];
      if (!ConvergenceGuard::finite(rho) ||
          !ConvergenceGuard::finite(sigma)) {
        ctl.needs_stamp[mm] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kNanDetected);
        continue;
      }
      if (sigma == 0.0) {
        ctl.needs_stamp[mm] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kBreakdown);
        continue;
      }
      const double alpha = rho / sigma;
      ca[s] = 1.0;
      cb[s] = beta;
      cc[s] = alpha;
      cneg[s] = -alpha;
      rho_old[mm] = rho;
      sigma_old[mm] = sigma;
    }
    if (ctl.n_active == 0) break;

    // Steps 13-16, fused pairwise into two sweeps (the direction update
    // and the iterate update that consumes it share one pass each);
    // frozen lanes masked out so their x and r planes stay exactly at
    // freeze state.
    lincomb_axpy(comm, ca.data(), rp, cb.data(), s_dir, cc.data(), *xw,
                 a.span_plan(), ctl.active.data());
    lincomb_axpy(comm, ca.data(), z, cb.data(), p_dir, cneg.data(), r,
                 a.span_plan(), ctl.active.data());

    if (check && should_retire(ctl)) {
      compact(ctl, comm, a, x, bw, b_own, xw, x_own, r,
              {&r, &s_dir, &p_dir}, {&rp, &z}, sums, x.halo());
    }
  }

  finish(ctl, comm, a, x, xw, r, sums);
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
  const int nb0 = b.nb();

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  const comm::DistFieldBatch* bw = &b;
  comm::DistFieldBatch* xw = &x;
  std::unique_ptr<comm::DistFieldBatch> b_own, x_own;
  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch z(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatch q(a.decomposition(), a.rank(), nb0, x.halo());
  // p starts at zero — the constructor zero-fills.
  comm::DistFieldBatch p(a.decomposition(), a.rank(), nb0, x.halo());

  a.residual_batch(comm, halo, *bw, *xw, r, x_fresh);

  // Per-member rho, indexed by ORIGINAL member id so it survives
  // retirement compactions.
  std::vector<double> rho_old(nb0, 1.0);
  std::vector<double> one(nb0, 1.0), beta(nb0), alpha(nb0), neg_alpha(nb0);
  std::vector<double> sums(nb0);
  std::vector<double> red(2 * static_cast<std::size_t>(nb0));

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < ctl.cur_nb; ++s)
      if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;
    const int n = ctl.cur_nb;

    m.apply_batch(comm, r, z);

    // Reduction 1: rho = r·z, with ||r||² riding along at checks.
    const bool check = (k % opt_.check_frequency == 0);
    a.local_dot_batch(comm, r, z, red.data());
    if (check) a.local_dot_batch(comm, r, r, red.data() + n);
    reduce_guarded(ctl, comm,
                   std::span<double>(red.data(),
                                     static_cast<std::size_t>(check ? 2 : 1) *
                                         n));
    if (ctl.n_active == 0) break;
    if (check) {
      check_members(ctl, comm, halo, a, *bw, r, *xw, k, red.data() + n,
                    /*r_is_true=*/false);
      if (ctl.n_active == 0) break;
    }

    // p = z + beta p, frozen lanes masked out here and below so their x
    // and r planes stay exactly at freeze state.
    for (int s = 0; s < n; ++s)
      if (ctl.active[s]) beta[s] = red[s] / rho_old[ctl.member_of[s]];
    lincomb(comm, one.data(), z, beta.data(), p, a.span_plan(),
            ctl.active.data());

    a.apply_batch(comm, halo, p, q);

    // Reduction 2: sigma = p·q; rho/sigma pathologies freeze the member.
    a.local_dot_batch(comm, p, q, sums.data());
    reduce_guarded(ctl, comm, std::span<double>(sums.data(), n));
    for (int s = 0; s < n; ++s) {
      if (!ctl.active[s]) continue;
      const int mm = ctl.member_of[s];
      const double rho = red[s];
      const double sigma = sums[s];
      if (!ConvergenceGuard::finite(rho) ||
          !ConvergenceGuard::finite(sigma)) {
        ctl.needs_stamp[mm] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kNanDetected);
        continue;
      }
      if (sigma == 0.0) {
        ctl.needs_stamp[mm] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kBreakdown);
        continue;
      }
      alpha[s] = rho / sigma;
      neg_alpha[s] = -alpha[s];
      rho_old[mm] = rho;
    }
    if (ctl.n_active == 0) break;

    axpy(comm, alpha.data(), p, *xw, a.span_plan(), ctl.active.data());
    axpy(comm, neg_alpha.data(), q, r, a.span_plan(), ctl.active.data());

    if (check && should_retire(ctl)) {
      compact(ctl, comm, a, x, bw, b_own, xw, x_own, r, {&r, &p}, {&z, &q},
              sums, x.halo());
    }
  }

  finish(ctl, comm, a, x, xw, r, sums);
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
