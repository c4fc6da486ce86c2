#include "src/solver/batched_solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "src/fault/fault_injector.hpp"
#include "src/solver/comm_avoid.hpp"
#include "src/solver/integrity.hpp"
#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

/// Interior cell count of one member plane (BlockInfo dims are cells,
/// not the nb-widened storage columns).
template <typename T>
std::uint64_t interior_points(const comm::DistFieldBatchT<T>& f) {
  std::uint64_t n = 0;
  for (int lb = 0; lb < f.num_local_blocks(); ++lb) {
    const auto& b = f.info(lb);
    n += static_cast<std::uint64_t>(b.nx) * b.ny;
  }
  return n;
}

/// y = x over all members' interiors (batched copy_interior).
template <typename T>
void copy_all(const comm::DistFieldBatchT<T>& x, comm::DistFieldBatchT<T>& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "batch copy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::copy(x.nb(), info.nx, info.ny, x.interior(lb), x.stride(lb),
                  y.interior(lb), y.stride(lb));
  }
}

/// Interior of member m := v (batched counterpart of fill_interior for
/// one member plane; only used on zero-RHS members, so no fused kernel).
template <typename T>
void fill_member(comm::DistFieldBatchT<T>& x, int m, double v) {
  const T vt = static_cast<T>(v);
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) x.at(lb, i, j, m) = vt;
  }
}

/// Cost of a member-masked update over the plan: `per_point` flops on
/// every interior point of the n_act active lanes (a frozen member's
/// solve has, logically, already returned), and the plan's ocean census
/// against the swept interior.
template <typename T>
void count_active(comm::Communicator& comm, std::uint64_t per_point,
                  const comm::DistFieldBatchT<T>& x, int n_act,
                  const SpanPlan& plan) {
  std::uint64_t active = 0;
  for (const auto& bs : plan)
    active += static_cast<std::uint64_t>(bs.active_points());
  const std::uint64_t swept = interior_points(x) * n_act;
  comm.costs().add_flops(per_point * swept);
  comm.costs().add_points(active * n_act, swept);
}

/// x_m *= a[m] for active members.
template <typename T>
void scale_active(comm::Communicator& comm, const T* a,
                  comm::DistFieldBatchT<T>& x,
                  const std::vector<unsigned char>& active, int n_act,
                  const SpanPlan& plan) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::scale(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                   x.info(lb).ny, a, x.interior(lb), x.stride(lb),
                   active.data());
  count_active(comm, 1, x, n_act, plan);
}

/// y_m += a[m] * x_m for active members.
template <typename T>
void axpy_active(comm::Communicator& comm, const T* a,
                 const comm::DistFieldBatchT<T>& x,
                 comm::DistFieldBatchT<T>& y,
                 const std::vector<unsigned char>& active, int n_act,
                 const SpanPlan& plan) {
  MINIPOP_REQUIRE(x.compatible_with(y), "batch axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::axpy(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                  x.info(lb).ny, a, x.interior(lb), x.stride(lb),
                  y.interior(lb), y.stride(lb), active.data());
  count_active(comm, 2, x, n_act, plan);
}

/// Fused y_m = a[m] x_m + b[m] y_m; z_m += c[m] y_m for active members.
template <typename T>
void lincomb_axpy_active(comm::Communicator& comm, const T* a,
                         const comm::DistFieldBatchT<T>& x, const T* b,
                         comm::DistFieldBatchT<T>& y, const T* c,
                         comm::DistFieldBatchT<T>& z,
                         const std::vector<unsigned char>& active,
                         int n_act, const SpanPlan& plan) {
  MINIPOP_REQUIRE(x.compatible_with(y) && x.compatible_with(z),
                  "batch lincomb_axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb_axpy(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                          x.info(lb).ny, a, x.interior(lb), x.stride(lb), b,
                          y.interior(lb), y.stride(lb), c, z.interior(lb),
                          z.stride(lb), active.data());
  count_active(comm, 4, x, n_act, plan);
}

/// Slot bookkeeping shared by the batched solvers. Per-MEMBER state
/// (stats, ||b||², thresholds, guards) is indexed by the member's
/// original position in the caller's batch and survives retirement;
/// per-SLOT state (member_of, active) tracks the current, possibly
/// compacted, batch.
struct BatchControl {
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
  bool record = false;  // SolverOptions::record_residuals

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
template <typename T>
BatchControl init_control(const SolverOptions& opt, comm::Communicator& comm,
                          const DistOperator& a,
                          const comm::DistFieldBatchT<T>& b,
                          comm::DistFieldBatchT<T>& x) {
  const int nb = b.nb();
  BatchControl ctl;
  ctl.out.members.resize(nb);
  ctl.b_norm2.assign(nb, 0.0);
  ctl.threshold2.assign(nb, 0.0);
  ctl.guards.reserve(nb);
  ctl.needs_stamp.assign(nb, 0);
  ctl.member_of.resize(nb);
  ctl.active.assign(nb, 1);
  ctl.n_active = nb;
  ctl.cur_nb = nb;
  ctl.record = opt.record_residuals;

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
template <typename T>
void stamp_pending(BatchControl& ctl, comm::Communicator& comm,
                   const DistOperator& a, const comm::DistFieldBatchT<T>& r,
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
template <typename T>
void flush_member(comm::DistFieldBatchT<T>& x_caller, int m,
                  const comm::DistFieldBatchT<T>& xw, int s) {
  if (x_caller.halo() == xw.halo())
    x_caller.copy_member_from(m, xw, s);
  else
    x_caller.copy_member_interior_from(m, xw, s);
}

/// Per-member verdicts of the convergence check at iteration k, for
/// every still-active slot: record the checked relative residual, then
/// an integrity-audit failure freezes the member, an accepting norm
/// converges it, and otherwise its guard may fail it. `norm2[s]` is
/// slot s's reduced ||r||². A guard freeze needs no pending stamp: the
/// checked norm is the member's final residual.
void apply_check(BatchControl& ctl, int k, const double* norm2,
                 const std::vector<unsigned char>& accept_s,
                 const std::vector<FailureKind>& audit) {
  for (int s = 0; s < ctl.cur_nb; ++s) {
    if (!ctl.active[s]) continue;
    const int mm = ctl.member_of[s];
    const double rel = std::sqrt(norm2[s] / ctl.b_norm2[mm]);
    if (ctl.record)
      ctl.out.members[mm].residual_history.emplace_back(k, rel);
    if (audit[s] != FailureKind::kNone) {
      ctl.needs_stamp[mm] = 1;
      ctl.freeze(s, false, 0.0, audit[s]);
      continue;
    }
    if (accept_s[s]) {
      ctl.freeze(s, true, rel, FailureKind::kNone);
      continue;
    }
    const FailureKind f = ctl.guards[mm].check(rel);
    if (f != FailureKind::kNone) ctl.freeze(s, false, rel, f);
  }
}

bool should_retire(const SolverOptions& opt, const BatchControl& ctl) {
  return opt.batch_retire_fraction > 0.0 && ctl.n_active > 0 &&
         ctl.n_active < ctl.cur_nb &&
         static_cast<double>(ctl.n_active) <=
             opt.batch_retire_fraction * ctl.cur_nb;
}

/// Retirement compaction: flush every slot's solution plane back to the
/// caller's batch, then migrate the survivors (b, x and the solver's
/// carried fields) into freshly allocated width-n_active batches and
/// reallocate the per-iteration scratch fields. Pure data movement —
/// no member's arithmetic changes, only the lane count.
template <typename T>
void compact(BatchControl& ctl, comm::Communicator& comm,
             const DistOperator& a, comm::DistFieldBatchT<T>& x_caller,
             const comm::DistFieldBatchT<T>*& bw,
             std::unique_ptr<comm::DistFieldBatchT<T>>& b_own,
             comm::DistFieldBatchT<T>*& xw,
             std::unique_ptr<comm::DistFieldBatchT<T>>& x_own,
             comm::DistFieldBatchT<T>& r,
             const std::vector<comm::DistFieldBatchT<T>*>& carried,
             const std::vector<comm::DistFieldBatchT<T>*>& scratch,
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

  auto nb_own = std::make_unique<comm::DistFieldBatchT<T>>(decomp, rank,
                                                           n_new, halo);
  auto nx_own = std::make_unique<comm::DistFieldBatchT<T>>(decomp, rank,
                                                           n_new, halo);
  for (int t = 0; t < n_new; ++t) {
    nb_own->copy_member_from(t, *bw, keep[t]);
    nx_own->copy_member_from(t, *xw, keep[t]);
  }
  b_own = std::move(nb_own);
  x_own = std::move(nx_own);
  bw = b_own.get();
  xw = x_own.get();

  for (comm::DistFieldBatchT<T>* f : carried) {
    comm::DistFieldBatchT<T> nf(decomp, rank, n_new, halo);
    for (int t = 0; t < n_new; ++t) nf.copy_member_from(t, *f, keep[t]);
    *f = std::move(nf);
  }
  for (comm::DistFieldBatchT<T>* f : scratch)
    *f = comm::DistFieldBatchT<T>(decomp, rank, n_new, halo);

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
template <typename T>
void finish(BatchControl& ctl, comm::Communicator& comm,
            const DistOperator& a, comm::DistFieldBatchT<T>& x_caller,
            comm::DistFieldBatchT<T>* xw, const comm::DistFieldBatchT<T>& r,
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
  return solve_t<double>(comm, halo, a, m, b, x, x_fresh);
}

template <typename T>
BatchSolveStats BatchedPcsiSolver::solve_t(comm::Communicator& comm,
                                           const comm::HaloExchanger& halo,
                                           const DistOperator& a,
                                           Preconditioner& m,
                                           const comm::DistFieldBatchT<T>& b,
                                           comm::DistFieldBatchT<T>& x,
                                           comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(b.compatible_with(x), "batched pcsi: b/x mismatch");
  if (opt_.halo_depth > 1 &&
      (m.name() == "diagonal" || m.name() == "identity") &&
      std::min(std::max(opt_.halo_depth, 1),
               a.decomposition().max_halo_width()) > 1)
    return solve_comm_avoid_t<T>(comm, halo, a, m, b, x);
  const auto snapshot = comm.costs().counters();
  const int nb0 = b.nb();
  const bool ov = opt_.overlap;

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
  const comm::DistFieldBatchT<T>* bw = &b;
  comm::DistFieldBatchT<T>* xw = &x;
  std::unique_ptr<comm::DistFieldBatchT<T>> b_own, x_own;
  comm::DistFieldBatchT<T> r(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatchT<T> rp(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatchT<T> dx(a.decomposition(), a.rank(), nb0, x.halo());

  std::vector<T> ca(nb0), cb(nb0), cc(nb0);
  std::vector<double> sums(nb0);
  std::vector<int> bad_idx;
  std::vector<unsigned char> accept_s(nb0);
  std::vector<FailureKind> audit(nb0);
  BatchIntegrityAuditor auditor(opt_);

  // Initial step (Algorithm 2, step 2), gated so zero-RHS members'
  // solutions stay exactly at the early-out's fill(0).
  if (ov)
    a.residual_overlapped_batch(comm, halo, *bw, *xw, r, x_fresh);
  else
    a.residual_batch(comm, halo, *bw, *xw, r, x_fresh);
  m.apply_batch(comm, r, rp);
  copy_all(rp, dx);
  std::fill(ca.begin(), ca.end(), static_cast<T>(1.0 / gamma));
  scale_active(comm, ca.data(), dx, ctl.active, ctl.n_active,
               a.span_plan());
  std::fill(ca.begin(), ca.end(), static_cast<T>(1.0));
  axpy_active(comm, ca.data(), dx, *xw, ctl.active, ctl.n_active,
              a.span_plan());
  if (ov)
    a.residual_overlapped_batch(comm, halo, *bw, *xw, r);
  else
    a.residual_batch(comm, halo, *bw, *xw, r);

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < ctl.cur_nb; ++s)
      if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;

    omega = 1.0 / (gamma - omega / (4.0 * alpha * alpha));

    m.apply_batch(comm, r, rp);
    std::fill(ca.begin(), ca.begin() + ctl.cur_nb, static_cast<T>(omega));
    std::fill(cb.begin(), cb.begin() + ctl.cur_nb,
              static_cast<T>(gamma * omega - 1.0));
    std::fill(cc.begin(), cc.begin() + ctl.cur_nb, static_cast<T>(1.0));
    lincomb_axpy_active(comm, ca.data(), rp, cb.data(), dx, cc.data(), *xw,
                        ctl.active, ctl.n_active, a.span_plan());

    if (k % opt_.check_frequency == 0) {
      // One fused residual+norm sweep, one CURRENT-WIDTH vector
      // allreduce: slot s reduces bit-identically to the 1-element
      // check reduction of that member solved alone.
      if (ov)
        a.residual_local_norm2_overlapped_batch(comm, halo, *bw, *xw, r,
                                                sums.data());
      else
        a.residual_local_norm2_batch(comm, halo, *bw, *xw, r, sums.data());
      bad_idx.clear();
      if (allreduce_sum_guarded(comm, opt_.integrity,
                                std::span<double>(sums.data(), ctl.cur_nb),
                                &bad_idx)) {
        // A mismatched slot's norm is untrustworthy: freeze that member
        // with a typed failure and stamp its residual from its (valid)
        // r plane at the next stamp point.
        for (int i : bad_idx) {
          if (!ctl.active[i]) continue;
          ctl.needs_stamp[ctl.member_of[i]] = 1;
          ctl.freeze(i, false, 0.0, FailureKind::kCorruptReduction);
        }
        if (ctl.n_active == 0) break;
      }
      accept_s.assign(ctl.cur_nb, 0);
      audit.assign(ctl.cur_nb, FailureKind::kNone);
      for (int s = 0; s < ctl.cur_nb; ++s)
        if (ctl.active[s] && sums[s] <= ctl.threshold2[ctl.member_of[s]])
          accept_s[s] = 1;
      // P-CSI's r IS the true residual, so only the ABFT operator audit
      // applies — run it before any accepting check freezes a member as
      // converged.
      if (opt_.integrity.any_solver_check())
        auditor.at_check(comm, halo, a, *bw, r, *xw, ctl.b_norm2.data(),
                         ctl.member_of.data(), ctl.active.data(),
                         ctl.cur_nb, nullptr, /*r_is_true=*/true,
                         accept_s.data(), /*any_accept=*/false,
                         audit.data());
      apply_check(ctl, k, sums.data(), accept_s, audit);
      if (ctl.n_active == 0) break;
      if (should_retire(opt_, ctl)) {
        compact(ctl, comm, a, x, bw, b_own, xw, x_own, r, {&r, &dx}, {&rp},
                sums, x.halo());
      }
    } else {
      if (ov)
        a.residual_overlapped_batch(comm, halo, *bw, *xw, r);
      else
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
template <typename T>
BatchSolveStats BatchedPcsiSolver::solve_comm_avoid_t(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m,
    const comm::DistFieldBatchT<T>& b, comm::DistFieldBatchT<T>& x) {
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
  auto b_own = std::make_unique<comm::DistFieldBatchT<T>>(
      a.decomposition(), a.rank(), nb0, hw);
  auto x_own = std::make_unique<comm::DistFieldBatchT<T>>(
      a.decomposition(), a.rank(), nb0, hw);
  for (int mb = 0; mb < nb0; ++mb) {
    b_own->copy_member_interior_from(mb, b, mb);
    x_own->copy_member_interior_from(mb, x, mb);
  }
  const comm::DistFieldBatchT<T>* bw = b_own.get();
  comm::DistFieldBatchT<T>* xw = x_own.get();
  comm::DistFieldBatchT<T> r(a.decomposition(), a.rank(), nb0, hw);
  comm::DistFieldBatchT<T> rp(a.decomposition(), a.rank(), nb0, hw);
  comm::DistFieldBatchT<T> dx(a.decomposition(), a.rank(), nb0, hw);

  std::vector<T> ca(nb0), cb(nb0), cc(nb0);
  std::vector<double> sums(nb0);
  std::vector<int> bad_idx;
  std::vector<unsigned char> accept_s(nb0);
  std::vector<FailureKind> audit(nb0);
  BatchIntegrityAuditor auditor(opt_);

  // b's deep ghosts feed every extended residual sweep and b never
  // changes: ONE exchange per solve (compaction's full-plane member
  // migration preserves the ghosts across retirements).
  halo.exchange(comm, *b_own);

  // Initial step (Algorithm 2, step 2), gated like the depth-1 path so
  // zero-RHS members' solutions stay exactly at the early-out's fill(0).
  a.residual_batch(comm, halo, *bw, *xw, r);
  m.apply_batch(comm, r, rp);
  copy_all(rp, dx);
  std::fill(ca.begin(), ca.end(), static_cast<T>(1.0 / gamma));
  scale_active(comm, ca.data(), dx, ctl.active, ctl.n_active,
               a.span_plan());
  std::fill(ca.begin(), ca.end(), static_cast<T>(1.0));
  axpy_active(comm, ca.data(), dx, *xw, ctl.active, ctl.n_active,
              a.span_plan());
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
    const comm::FieldSetT<T> group_sets[3] = {
        comm::FieldSetT<T>(*xw), comm::FieldSetT<T>(dx),
        comm::FieldSetT<T>(r)};
    halo.exchange_group<T>(
        comm, std::span<const comm::FieldSetT<T>>(group_sets, 3));

    for (int j = 1; j <= g; ++j, ++k) {
      ctl.out.iterations = k;
      for (int s = 0; s < ctl.cur_nb; ++s)
        if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;

      omega = 1.0 / (gamma - omega / (4.0 * alpha * alpha));
      const int ept = g - j + 1;  // precond/update extension
      eng.precond_batch(comm, kind, r, rp, ept);
      std::fill(ca.begin(), ca.begin() + ctl.cur_nb, static_cast<T>(omega));
      std::fill(cb.begin(), cb.begin() + ctl.cur_nb,
                static_cast<T>(gamma * omega - 1.0));
      std::fill(cc.begin(), cc.begin() + ctl.cur_nb, static_cast<T>(1.0));
      eng.update_batch(comm, ca.data(), rp, cb.data(), dx, cc.data(), *xw,
                       ctl.active.data(), ctl.n_active, ept);
      eng.residual_batch(comm, *bw, *xw, r, ept - 1);
    }
    const int k_last = k - 1;

    if (k_last % opt_.check_frequency == 0) {
      // r's interior IS the lockstep residual; one vector allreduce of
      // the per-member masked norms, as in the depth-1 check.
      a.local_dot_batch(comm, r, r, sums.data());
      bad_idx.clear();
      if (allreduce_sum_guarded(comm, opt_.integrity,
                                std::span<double>(sums.data(), ctl.cur_nb),
                                &bad_idx)) {
        for (int i : bad_idx) {
          if (!ctl.active[i]) continue;
          ctl.needs_stamp[ctl.member_of[i]] = 1;
          ctl.freeze(i, false, 0.0, FailureKind::kCorruptReduction);
        }
        if (ctl.n_active == 0) break;
      }
      accept_s.assign(ctl.cur_nb, 0);
      audit.assign(ctl.cur_nb, FailureKind::kNone);
      for (int s = 0; s < ctl.cur_nb; ++s)
        if (ctl.active[s] && sums[s] <= ctl.threshold2[ctl.member_of[s]])
          accept_s[s] = 1;
      if (opt_.integrity.any_solver_check())
        auditor.at_check(comm, halo, a, *bw, r, *xw, ctl.b_norm2.data(),
                         ctl.member_of.data(), ctl.active.data(),
                         ctl.cur_nb, nullptr, /*r_is_true=*/true,
                         accept_s.data(), /*any_accept=*/false,
                         audit.data());
      apply_check(ctl, k_last, sums.data(), accept_s, audit);
      if (ctl.n_active == 0) break;
      if (should_retire(opt_, ctl)) {
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
  return solve_t<double>(comm, halo, a, m, b, x, x_fresh);
}

template <typename T>
BatchSolveStats BatchedChronGearSolver::solve_t(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m,
    const comm::DistFieldBatchT<T>& b, comm::DistFieldBatchT<T>& x,
    comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(b.compatible_with(x), "batched chron_gear: b/x mismatch");
  const auto snapshot = comm.costs().counters();
  const int nb0 = b.nb();
  const bool ov = opt_.overlap;

  BatchControl ctl = init_control(opt_, comm, a, b, x);
  if (ctl.n_active == 0) {
    ctl.out.costs = comm.costs().since(snapshot);
    return ctl.out;
  }

  const comm::DistFieldBatchT<T>* bw = &b;
  comm::DistFieldBatchT<T>* xw = &x;
  std::unique_ptr<comm::DistFieldBatchT<T>> b_own, x_own;
  comm::DistFieldBatchT<T> r(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatchT<T> rp(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatchT<T> z(a.decomposition(), a.rank(), nb0, x.halo());
  // s and p start at zero — the constructors zero-fill.
  comm::DistFieldBatchT<T> s_dir(a.decomposition(), a.rank(), nb0, x.halo());
  comm::DistFieldBatchT<T> p_dir(a.decomposition(), a.rank(), nb0, x.halo());

  if (ov)
    a.residual_overlapped_batch(comm, halo, *bw, *xw, r, x_fresh);
  else
    a.residual_batch(comm, halo, *bw, *xw, r, x_fresh);

  // Per-member recurrence scalars, indexed by ORIGINAL member id so
  // they survive retirement compactions.
  std::vector<double> rho_old(nb0, 1.0);
  std::vector<double> sigma_old(nb0, 0.0);

  std::vector<T> ca(nb0), cb(nb0), cc(nb0), cneg(nb0);
  std::vector<double> sums(nb0);
  std::vector<double> red(3 * static_cast<std::size_t>(nb0));
  std::vector<int> bad_idx;
  std::vector<unsigned char> accept_s(nb0);
  std::vector<FailureKind> audit(nb0);
  BatchIntegrityAuditor auditor(opt_);

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    ctl.out.iterations = k;
    for (int s = 0; s < ctl.cur_nb; ++s)
      if (ctl.active[s]) ctl.out.members[ctl.member_of[s]].iterations = k;

    m.apply_batch(comm, r, rp);
    if (ov)
      a.apply_overlapped_batch(comm, halo, rp, z);
    else
      a.apply_batch(comm, halo, rp, z);

    // All members' fused {rho, delta[, ||r||²]} partial sums ride ONE
    // grouped vector allreduce. Element-wise fixed-order combination
    // makes each member's scalars bit-equal at every batch width.
    const bool check = (k % opt_.check_frequency == 0);
    a.local_dot3_batch(comm, r, rp, z, check, red.data());
    bad_idx.clear();
    if (allreduce_sum_guarded(
            comm, opt_.integrity,
            std::span<double>(red.data(),
                              static_cast<std::size_t>(check ? 3 : 2) *
                                  ctl.cur_nb),
            &bad_idx)) {
      // A mismatched slot poisons that member's rho/delta/norm: freeze
      // it with a typed failure (residual stamped later from its frozen
      // r plane, which reduction corruption does not touch).
      for (int i : bad_idx) {
        const int s = i % ctl.cur_nb;
        if (!ctl.active[s]) continue;
        ctl.needs_stamp[ctl.member_of[s]] = 1;
        ctl.freeze(s, false, 0.0, FailureKind::kCorruptReduction);
      }
      if (ctl.n_active == 0) break;
    }

    if (check) {
      accept_s.assign(ctl.cur_nb, 0);
      audit.assign(ctl.cur_nb, FailureKind::kNone);
      bool any_accept = false;
      for (int s = 0; s < ctl.cur_nb; ++s) {
        if (!ctl.active[s]) continue;
        if (red[2 * ctl.cur_nb + s] <= ctl.threshold2[ctl.member_of[s]]) {
          accept_s[s] = 1;
          any_accept = true;
        }
      }
      // ChronGear's r is a recurrence: audit both the operator (ABFT) and
      // recurrence-vs-true-residual drift — always before an accepting
      // check turns a recurrence claim into "converged".
      if (opt_.integrity.any_solver_check())
        auditor.at_check(comm, halo, a, *bw, r, *xw, ctl.b_norm2.data(),
                         ctl.member_of.data(), ctl.active.data(),
                         ctl.cur_nb, red.data() + 2 * ctl.cur_nb,
                         /*r_is_true=*/false, accept_s.data(), any_accept,
                         audit.data());
      apply_check(ctl, k, red.data() + 2 * ctl.cur_nb, accept_s, audit);
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
      ca[s] = static_cast<T>(1.0);
      cb[s] = static_cast<T>(beta);
      cc[s] = static_cast<T>(alpha);
      cneg[s] = static_cast<T>(-alpha);
      rho_old[mm] = rho;
      sigma_old[mm] = sigma;
    }
    if (ctl.n_active == 0) break;

    // Steps 13-16, fused pairwise into two sweeps (the direction update
    // and the iterate update that consumes it share one pass each);
    // frozen lanes masked out so their x and r planes stay exactly at
    // freeze state.
    lincomb_axpy_active(comm, ca.data(), rp, cb.data(), s_dir, cc.data(),
                        *xw, ctl.active, ctl.n_active, a.span_plan());
    lincomb_axpy_active(comm, ca.data(), z, cb.data(), p_dir, cneg.data(),
                        r, ctl.active, ctl.n_active, a.span_plan());

    if (check && should_retire(opt_, ctl)) {
      compact(ctl, comm, a, x, bw, b_own, xw, x_own, r,
              {&r, &s_dir, &p_dir}, {&rp, &z}, sums, x.halo());
    }
  }

  finish(ctl, comm, a, x, xw, r, sums);
  ctl.out.costs = comm.costs().since(snapshot);
  return ctl.out;
}

// ---------------------------------------------------------------------------
// Width-1 entry point

namespace {

/// Lends a field's block planes to a width-1 batch for one scope: at
/// nb = 1 a batch plane has exactly a DistField block's layout, so the
/// planes move in and back (also when the solve throws) instead of
/// being copied, and a single solve holds one copy of x, not two.
class LentPlanes {
 public:
  LentPlanes(comm::DistField& f, comm::DistFieldBatch& batch)
      : f_(f), batch_(batch) {
    for (int lb = 0; lb < f_.num_local_blocks(); ++lb)
      batch_.data(lb) = std::move(f_.data(lb));
  }
  ~LentPlanes() {
    for (int lb = 0; lb < f_.num_local_blocks(); ++lb)
      f_.data(lb) = std::move(batch_.data(lb));
  }
  LentPlanes(const LentPlanes&) = delete;
  LentPlanes& operator=(const LentPlanes&) = delete;

 private:
  comm::DistField& f_;
  comm::DistFieldBatch& batch_;
};

}  // namespace

SolveStats solve_one(BatchedSolver& solver, comm::Communicator& comm,
                     const comm::HaloExchanger& halo, const DistOperator& a,
                     Preconditioner& m, const comm::DistField& b,
                     comm::DistField& x, comm::HaloFreshness x_fresh) {
  comm::DistFieldBatch bb(a.decomposition(), a.rank(), 1, b.halo());
  comm::DistFieldBatch xb(a.decomposition(), a.rank(), 1, x.halo());
  MINIPOP_REQUIRE(bb.member_compatible(b) && xb.member_compatible(x),
                  "solve_one: b/x do not match the operator's blocks");
  bb.load_member(0, b);
  BatchSolveStats bs;
  {
    const LentPlanes lent(x, xb);
    bs = solver.solve(comm, halo, a, m, bb, xb, x_fresh);
  }
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
