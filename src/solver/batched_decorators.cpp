#include "src/solver/batched_decorators.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "src/solver/field_ops.hpp"
#include "src/solver/integrity.hpp"
#include "src/solver/preconditioner.hpp"
#include "src/util/error.hpp"
#include "src/util/log.hpp"

namespace minipop::solver {

namespace {

/// Interior of member m := 0 (freezes the member through the inner
/// solve's zero-RHS early-out; see solve_mixed).
void zero_member(comm::DistFieldBatch32& x, int m) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) x.at(lb, i, j, m) = 0.0f;
  }
}

void zero_nonfinite(comm::DistFieldBatch& v) {
  const int nb = v.nb();
  for (int lb = 0; lb < v.num_local_blocks(); ++lb) {
    const auto& info = v.info(lb);
    double* p = v.interior(lb);
    const std::ptrdiff_t stride = v.stride(lb);
    const int row = info.nx * nb;  // interior rows are nb-widened spans
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < row; ++i)
        if (!std::isfinite(p[j * stride + i])) p[j * stride + i] = 0.0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchedMixedPrecisionSolver

BatchedMixedPrecisionSolver::BatchedMixedPrecisionSolver(
    std::unique_ptr<BatchedSolver> fp64_twin, const SolverOptions& options)
    : twin_(std::move(fp64_twin)), opt_(options) {
  MINIPOP_REQUIRE(twin_ != nullptr, "batched mixed precision needs a solver");
  pcsi_ = dynamic_cast<BatchedPcsiSolver*>(twin_.get());
  cg_ = dynamic_cast<BatchedChronGearSolver*>(twin_.get());
  MINIPOP_REQUIRE(pcsi_ != nullptr || cg_ != nullptr,
                  "batched mixed precision wraps batched pcsi or chrongear, "
                  "got '" << twin_->name() << "'");
}

std::string BatchedMixedPrecisionSolver::name() const {
  return std::string(to_string(opt_.precision)) + "(" + twin_->name() + ")";
}

BatchSolveStats BatchedMixedPrecisionSolver::solve(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m, const comm::DistFieldBatch& b,
    comm::DistFieldBatch& x, comm::HaloFreshness x_fresh) {
  if (forced_fp64_ || opt_.precision == Precision::kFp64)
    return twin_->solve(comm, halo, a, m, b, x, x_fresh);
  if (opt_.precision == Precision::kFp32)
    return solve_fp32(comm, halo, a, m, b, x);
  return solve_mixed(comm, halo, a, m, b, x, x_fresh);
}

BatchSolveStats BatchedMixedPrecisionSolver::solve(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m,
    const comm::DistFieldBatch32& b, comm::DistFieldBatch32& x,
    comm::HaloFreshness x_fresh) {
  return twin_->solve(comm, halo, a, m, b, x, x_fresh);
}

std::unique_ptr<BatchedSolver> BatchedMixedPrecisionSolver::make_inner()
    const {
  SolverOptions inner = opt_;
  inner.rel_tolerance = opt_.refine_inner_tolerance;
  inner.max_iterations = opt_.refine_max_inner_iterations;
  inner.record_residuals = false;
  if (pcsi_)
    return std::make_unique<BatchedPcsiSolver>(pcsi_->bounds(), inner);
  return std::make_unique<BatchedChronGearSolver>(inner);
}

BatchSolveStats BatchedMixedPrecisionSolver::solve_fp32(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m, const comm::DistFieldBatch& b,
    comm::DistFieldBatch& x) {
  comm::DistFieldBatch32 b32(a.decomposition(), a.rank(), b.nb(), b.halo());
  comm::DistFieldBatch32 x32(a.decomposition(), a.rank(), x.nb(), x.halo());
  demote(b, b32);
  demote(x, x32);  // halos stale; the first residual refreshes them
  BatchSolveStats stats = twin_->solve(comm, halo, a, m, b32, x32);
  promote(x32, x);
  return stats;
}

BatchSolveStats BatchedMixedPrecisionSolver::solve_mixed(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, Preconditioner& m, const comm::DistFieldBatch& b,
    comm::DistFieldBatch& x, comm::HaloFreshness x_fresh) {
  const auto snapshot = comm.costs().counters();
  const int nb = b.nb();
  const bool ov = opt_.overlap;
  BatchSolveStats out;
  out.members.resize(nb);

  comm::DistFieldBatch r(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch32 r32(a.decomposition(), a.rank(), nb, x.halo());
  comm::DistFieldBatch32 d32(a.decomposition(), a.rank(), nb, x.halo());

  // True fp64 member norms and thresholds (the refinement guards).
  std::vector<double> b_norm2(nb, 0.0);
  a.local_dot_batch(comm, b, b, b_norm2.data());
  std::vector<int> bad_idx;
  std::vector<unsigned char> bad_slot(nb, 0);
  if (allreduce_sum_guarded(comm, opt_.integrity,
                            std::span<double>(b_norm2.data(), nb),
                            &bad_idx))
    for (int i : bad_idx) bad_slot[i] = 1;

  std::vector<double> threshold2(nb);
  std::vector<ConvergenceGuard> guards;
  guards.reserve(nb);
  std::vector<unsigned char> active(nb, 1);
  int n_active = nb;
  for (int mm = 0; mm < nb; ++mm) {
    guards.emplace_back(opt_);
    threshold2[mm] = opt_.rel_tolerance * opt_.rel_tolerance * b_norm2[mm];
    if (bad_slot[mm]) {
      // Untrustworthy ||b||² ⇒ untrustworthy threshold: fail the member
      // before it refines (as the batched core's init does).
      out.members[mm].failure = FailureKind::kCorruptReduction;
      active[mm] = 0;
      --n_active;
      continue;
    }
    if (b_norm2[mm] == 0.0) {
      // Zero right-hand side: x_m = 0, converged.
      for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
        const auto& info = x.info(lb);
        for (int j = 0; j < info.ny; ++j)
          for (int i = 0; i < info.nx; ++i) x.at(lb, i, j, mm) = 0.0;
      }
      out.members[mm].converged = true;
      active[mm] = 0;
      --n_active;
    }
  }
  if (n_active == 0) {
    out.costs = comm.costs().since(snapshot);
    return out;
  }

  std::vector<double> sums(nb);
  std::vector<double> ones(nb, 1.0);
  std::vector<unsigned char> accept_s(nb);
  std::vector<FailureKind> audit(nb);
  std::vector<int> member_id(nb);
  for (int mm = 0; mm < nb; ++mm) member_id[mm] = mm;
  BatchIntegrityAuditor auditor(opt_);
  comm::HaloFreshness fresh = x_fresh;

  for (int sweep = 0;; ++sweep) {
    // fp64 residual and per-member convergence check, one vector
    // allreduce per sweep. The batch stays full width here — outer
    // sweeps are few, and frozen members cost nothing in the inner
    // solve (their zeroed residual freezes them at its first check).
    if (ov)
      a.residual_local_norm2_overlapped_batch(comm, halo, b, x, r,
                                              sums.data(), fresh);
    else
      a.residual_local_norm2_batch(comm, halo, b, x, r, sums.data(), fresh);
    fresh = comm::HaloFreshness::kStale;
    bad_idx.clear();
    bool red_bad = false;
    if (ov) {
      // Hide the check reduction behind the (local) demotion of r; the
      // demoted copy is only wasted on the final, converged sweep.
      GuardedReduction req;
      req.post(comm, opt_.integrity, std::span<double>(sums.data(), nb));
      demote(r, r32);
      red_bad = req.wait(&bad_idx);
    } else {
      red_bad = allreduce_sum_guarded(comm, opt_.integrity,
                                      std::span<double>(sums.data(), nb),
                                      &bad_idx);
    }
    if (red_bad) {
      for (int i : bad_idx) {
        if (!active[i]) continue;
        out.members[i].failure = FailureKind::kCorruptReduction;
        active[i] = 0;
        --n_active;
      }
      if (n_active == 0) break;
    }

    accept_s.assign(nb, 0);
    audit.assign(nb, FailureKind::kNone);
    for (int mm = 0; mm < nb; ++mm)
      if (active[mm] && sums[mm] <= threshold2[mm]) accept_s[mm] = 1;
    if (opt_.integrity.any_solver_check()) {
      // The refinement loop's r IS the true fp64 residual (r_is_true),
      // so only the ABFT operator audit applies — refinement is already
      // self-auditing against recurrence drift by construction, and the
      // outer check bounds whatever the fp32 inner solves did. Slot ==
      // member here (the outer batch never compacts).
      auditor.at_check(comm, halo, a, b, r, x, b_norm2.data(),
                       member_id.data(), active.data(), nb, nullptr,
                       /*r_is_true=*/true, accept_s.data(),
                       /*any_accept=*/false, audit.data());
    }

    for (int mm = 0; mm < nb; ++mm) {
      if (!active[mm]) continue;
      const double rel = std::sqrt(sums[mm] / b_norm2[mm]);
      out.members[mm].relative_residual = rel;
      if (opt_.record_residuals)
        out.members[mm].residual_history.emplace_back(
            out.members[mm].iterations, rel);
      if (audit[mm] != FailureKind::kNone) {
        out.members[mm].failure = audit[mm];
        active[mm] = 0;
        --n_active;
        continue;
      }
      if (accept_s[mm]) {
        out.members[mm].converged = true;
        active[mm] = 0;
        --n_active;
        continue;
      }
      FailureKind f = guards[mm].check(rel);
      if (f == FailureKind::kNone && sweep >= opt_.refine_max_sweeps)
        f = FailureKind::kMaxIters;
      if (f != FailureKind::kNone) {
        out.members[mm].failure = f;
        active[mm] = 0;
        --n_active;
      }
    }
    if (n_active == 0) break;

    // Batched fp32 inner solve of A d = r from zero, to a loose
    // tolerance relative to each member's ||r|| — each sweep shrinks the
    // fp64 residual by about that factor, so fp64 tolerance is reached
    // in a handful of sweeps. Members already frozen by the outer loop
    // get their residual plane zeroed: the inner solve's zero-RHS
    // early-out freezes them instantly (d_m = 0).
    if (!ov) demote(r, r32);
    for (int mm = 0; mm < nb; ++mm)
      if (!active[mm]) zero_member(r32, mm);
    d32.fill(0.0f);
    const std::unique_ptr<BatchedSolver> inner = make_inner();
    const BatchSolveStats istats =
        inner->solve(comm, halo, a, m, r32, d32);
    out.iterations += istats.iterations;
    out.retirements += istats.retirements;
    ++out.refine_sweeps;
    for (int mm = 0; mm < nb; ++mm) {
      if (!active[mm]) continue;
      out.members[mm].iterations += istats.members[mm].iterations;
      const FailureKind fi = istats.members[mm].failure;
      // A NaN/breakdown inside the inner solve fails the member before
      // its correction is applied; other inner failures (max_iters at a
      // loose tolerance) still improve x.
      if (fi == FailureKind::kNanDetected ||
          fi == FailureKind::kBreakdown) {
        out.members[mm].failure = fi;
        active[mm] = 0;
        --n_active;
      }
    }
    axpy_promoted(comm, ones.data(), d32, x, active.data(), n_active);
    if (n_active == 0) break;
  }

  out.costs = comm.costs().since(snapshot);
  return out;
}

// ---------------------------------------------------------------------------
// BatchedResilientSolver

BatchedResilientSolver::BatchedResilientSolver(
    std::unique_ptr<BatchedSolver> primary, RecoveryPolicy policy)
    : policy_(policy) {
  MINIPOP_REQUIRE(primary != nullptr, "resilient solver needs a primary");
  chain_.push_back(Stage{std::move(primary), false});
}

void BatchedResilientSolver::add_fallback(
    std::unique_ptr<BatchedSolver> solver, bool use_diagonal_precond) {
  MINIPOP_REQUIRE(solver != nullptr, "null fallback solver");
  chain_.push_back(Stage{std::move(solver), use_diagonal_precond});
}

std::string BatchedResilientSolver::name() const {
  return "resilient(" + chain_.front().solver->name() + ")";
}

void BatchedResilientSolver::checkpoint(const comm::DistFieldBatch& x) {
  // Drop snapshots from a different problem shape before reusing the ring.
  while (!ring_.empty() && !ring_.front().compatible_with(x)) ring_.clear();
  comm::DistFieldBatch snap(x.decomposition(), x.rank(), x.nb(), x.halo());
  copy_interior(x, snap);
  ring_.push_front(std::move(snap));
  while (ring_.size() > 2) ring_.pop_back();
}

BatchSolveStats BatchedResilientSolver::solve(comm::Communicator& comm,
                                              const comm::HaloExchanger& halo,
                                              const DistOperator& a,
                                              Preconditioner& m,
                                              const comm::DistFieldBatch& b,
                                              comm::DistFieldBatch& x,
                                              comm::HaloFreshness x_fresh) {
  const auto snapshot = comm.costs().counters();
  const int nb = b.nb();
  checkpoint(x);

  // A previous solve's precision escalation does not outlive it: each
  // solve gets a fresh shot at the fast fp32/mixed path.
  auto* mixed =
      dynamic_cast<BatchedMixedPrecisionSolver*>(chain_.front().solver.get());
  if (mixed) mixed->set_forced_fp64(false);
  // The P-CSI whose bounds the re-estimation rung replaces, if any.
  BatchedPcsiSolver* pcsi =
      dynamic_cast<BatchedPcsiSolver*>(chain_.front().solver.get());
  if (!pcsi && mixed) pcsi = mixed->pcsi();

  BatchSolveStats out;
  out.members.resize(nb);
  std::vector<int> iter_accum(nb, 0);

  // Members still in flight, by ORIGINAL id. Attempt 0 runs the whole
  // caller batch; a recovery transition gathers only the failed members
  // into owned sub-batches.
  std::vector<int> cur(nb);
  for (int mm = 0; mm < nb; ++mm) cur[mm] = mm;
  const comm::DistFieldBatch* bw = &b;
  comm::DistFieldBatch* xw = &x;
  std::unique_ptr<comm::DistFieldBatch> b_sub, x_sub;

  std::size_t stage = 0;
  int restarts_used = 0;
  bool bounds_reestimated = false;
  bool operator_repaired = false;
  comm::HaloFreshness fresh = x_fresh;

  for (int attempt = 0;; ++attempt) {
    const int w = static_cast<int>(cur.size());
    BatchSolveStats stats;
    bool comm_broken = false;
    FailureKind broken_code = FailureKind::kCommTimeout;
    std::vector<double> codes(w, 0.0);
    try {
      Stage& st = chain_[stage];
      if (st.use_diagonal_precond) {
        DiagonalPreconditioner diag(a);
        stats = st.solver->solve(comm, halo, a, diag, *bw, *xw, fresh);
      } else {
        stats = st.solver->solve(comm, halo, a, m, *bw, *xw, fresh);
      }
      for (int s = 0; s < w; ++s)
        codes[s] = stats.members[s].converged
                       ? 0.0
                       : static_cast<double>(
                             static_cast<int>(stats.members[s].failure));
    } catch (const comm::CommTimeoutError&) {
      comm_broken = true;
    } catch (const comm::CorruptPayloadError&) {
      // A halo message failed its CRC. The thrower already called
      // declare_desync() (peers funnel into resync below); the typed
      // code survives the post-resync kMax agreement.
      comm_broken = true;
      broken_code = FailureKind::kCorruptPayload;
    }

    // Agreement: ONE w-element kMax reduction of the member failure
    // codes so every rank takes the same per-member branch — the only
    // collective this decorator adds to a fault-free solve. If a peer
    // timed out, this very reduction throws and routes us to the
    // resync fence too.
    if (!comm_broken) {
      try {
        comm.allreduce(std::span<double>(codes.data(), w),
                       comm::ReduceOp::kMax);
      } catch (const comm::CommTimeoutError&) {
        comm_broken = true;
      }
    }
    if (comm_broken) {
      // Collective fence: every rank funnels here (its solve or its
      // agreement reduction throws), clearing the failed epoch. A
      // timeout poisons the whole working batch: the attempt's iterates
      // are not trustworthy on any member.
      comm.resync();
      std::fill(codes.begin(), codes.end(),
                static_cast<double>(static_cast<int>(broken_code)));
      comm.allreduce(std::span<double>(codes.data(), w),
                     comm::ReduceOp::kMax);
      stats = BatchSolveStats{};
      stats.members.resize(w);
    }

    out.iterations += stats.iterations;
    out.retirements += stats.retirements;
    out.refine_sweeps += stats.refine_sweeps;

    // Settle converged members (their planes are final); collect the
    // failed ones and the worst agreed failure, which drives the chain.
    std::vector<int> failed_slots;
    FailureKind worst = FailureKind::kNone;
    for (int s = 0; s < w; ++s) {
      const int mm = cur[s];
      iter_accum[mm] += stats.members[s].iterations;
      const FailureKind f =
          static_cast<FailureKind>(static_cast<int>(codes[s]));
      if (f == FailureKind::kNone) {
        out.members[mm].converged = true;
        out.members[mm].relative_residual =
            stats.members[s].relative_residual;
        out.members[mm].failure = FailureKind::kNone;
        out.members[mm].iterations = iter_accum[mm];
        out.members[mm].residual_history =
            std::move(stats.members[s].residual_history);
        if (xw != &x) x.copy_member_from(mm, *xw, s);
      } else {
        failed_slots.push_back(s);
        if (static_cast<int>(f) > static_cast<int>(worst)) worst = f;
      }
    }

    if (failed_slots.empty()) {
      out.costs = comm.costs().since(snapshot);
      return out;
    }

    // --- recovery decision (identical on every rank) ---
    RecoveryEvent ev;
    ev.failure = worst;
    ev.solver = chain_[stage].solver->name();
    ev.attempt = attempt;
    ev.iterations = stats.iterations;
    ev.members = static_cast<int>(failed_slots.size());

    enum class Act {
      kRepair, kEscalate, kReestimate, kRestart, kFallback, kGiveUp
    };
    Act act = Act::kGiveUp;
    if (worst == FailureKind::kCorruptOperator && !operator_repaired) {
      // A corrupted operator is repaired in place, once per solve: no
      // other rung can cure bad coefficients (every retry would re-run
      // the same wrong operator).
      act = Act::kRepair;
    } else if (stage == 0 && mixed && !mixed->forced_fp64() &&
               mixed->precision() != Precision::kFp64 &&
               !needs_resync(worst)) {
      // Cheapest thing to rule out: reduced-precision arithmetic. Not
      // for comm-layer failures (timeouts, corrupt payloads) —
      // precision cannot fix a lost or mangled message.
      act = Act::kEscalate;
    } else if (stage == 0 && pcsi && policy_.reestimate_bounds &&
               !bounds_reestimated &&
               (worst == FailureKind::kDiverged ||
                worst == FailureKind::kStagnated)) {
      // A diverging P-CSI usually means the Chebyshev interval no
      // longer brackets the spectrum; measure it again (collective).
      // Lanczos itself can fail — a corrupted operator may not even be
      // SPD any more — and that must burn the rung, not escape the
      // recovery chain: the failed members then take the restart or
      // fallback rung below with the bounds unchanged. Its requirement
      // checks fire on globally-reduced values, so every rank throws
      // (or not) together; comm-layer exceptions keep propagating.
      bounds_reestimated = true;
      try {
        const LanczosResult lr =
            estimate_eigenvalue_bounds(comm, halo, a, m, policy_.lanczos);
        pcsi->set_bounds(lr.bounds);
        act = Act::kReestimate;
      } catch (const comm::CommTimeoutError&) {
        throw;
      } catch (const comm::CorruptPayloadError&) {
        throw;
      } catch (const util::Error&) {
      }
    }
    std::size_t restore_slot = 0;
    if (act == Act::kGiveUp) {
      if (stage == 0 && restarts_used < policy_.max_restarts) {
        act = Act::kRestart;
        // Restart 1 retries from this solve's entry state; restart 2
        // falls back to the previous solve's (the older ring slot).
        restore_slot = static_cast<std::size_t>(restarts_used);
        ++restarts_used;
      } else if (policy_.fallback && stage + 1 < chain_.size()) {
        act = Act::kFallback;
        ++stage;
      }
    }

    if (act == Act::kGiveUp) {
      ev.action = "give_up";
      events_.push_back(ev);
      if (comm.rank() == 0)
        MINIPOP_WARN("resilient solver giving up: "
                     << to_string(worst) << " on " << failed_slots.size()
                     << " member(s) after " << (attempt + 1)
                     << " attempt(s)");
      for (int s : failed_slots) {
        const int mm = cur[s];
        out.members[mm].converged = false;
        out.members[mm].failure =
            static_cast<FailureKind>(static_cast<int>(codes[s]));
        out.members[mm].relative_residual =
            stats.members[s].relative_residual;
        out.members[mm].iterations = iter_accum[mm];
        out.members[mm].residual_history =
            std::move(stats.members[s].residual_history);
        if (xw != &x) x.copy_member_from(mm, *xw, s);
      }
      out.costs = comm.costs().since(snapshot);
      return out;
    }

    switch (act) {
      case Act::kRepair:
        ev.action = "repair_operator";
        a.repair_coefficients();
        operator_repaired = true;
        break;
      case Act::kEscalate:
        ev.action = "escalate_precision";
        mixed->set_forced_fp64(true);
        break;
      case Act::kReestimate:
        ev.action = "reestimate_bounds";
        break;
      case Act::kRestart:
        ev.action = "restart";
        break;
      case Act::kFallback:
        ev.action = "fallback";
        break;
      case Act::kGiveUp:
        break;  // handled above
    }
    events_.push_back(ev);

    // Gather ONLY the failed members into width-F recovery sub-batches;
    // their x planes restart from the checkpoint ring (sanitized), the
    // healthy members' results are untouched.
    const int f_n = static_cast<int>(failed_slots.size());
    std::vector<int> next(f_n);
    for (int t = 0; t < f_n; ++t) next[t] = cur[failed_slots[t]];
    auto nb_sub = std::make_unique<comm::DistFieldBatch>(
        b.decomposition(), b.rank(), f_n, b.halo());
    auto nx_sub = std::make_unique<comm::DistFieldBatch>(
        x.decomposition(), x.rank(), f_n, x.halo());
    MINIPOP_REQUIRE(!ring_.empty(), "restore without a checkpoint");
    const comm::DistFieldBatch& snap =
        ring_[std::min(restore_slot, ring_.size() - 1)];
    for (int t = 0; t < f_n; ++t) {
      nb_sub->copy_member_from(t, b, next[t]);
      nx_sub->copy_member_from(t, snap, next[t]);
    }
    zero_nonfinite(*nx_sub);
    b_sub = std::move(nb_sub);
    x_sub = std::move(nx_sub);
    bw = b_sub.get();
    xw = x_sub.get();
    cur = std::move(next);
    fresh = comm::HaloFreshness::kStale;
  }
}

// ---------------------------------------------------------------------------
// SequentialBatchedSolver

SequentialBatchedSolver::SequentialBatchedSolver(
    std::unique_ptr<IterativeSolver> scalar)
    : scalar_(std::move(scalar)) {
  MINIPOP_REQUIRE(scalar_ != nullptr, "sequential batch needs a solver");
}

BatchSolveStats SequentialBatchedSolver::solve(comm::Communicator& comm,
                                               const comm::HaloExchanger& halo,
                                               const DistOperator& a,
                                               Preconditioner& m,
                                               const comm::DistFieldBatch& b,
                                               comm::DistFieldBatch& x,
                                               comm::HaloFreshness x_fresh) {
  MINIPOP_REQUIRE(b.compatible_with(x), "sequential batch: b/x mismatch");
  const auto snapshot = comm.costs().counters();
  const int nb = b.nb();
  BatchSolveStats out;
  out.members.resize(nb);
  comm::DistField b_m(b.decomposition(), b.rank(), b.halo());
  comm::DistField x_m(x.decomposition(), x.rank(), x.halo());
  for (int mm = 0; mm < nb; ++mm) {
    b.store_member(mm, b_m);
    x.store_member(mm, x_m);
    const SolveStats s =
        scalar_->solve(comm, halo, a, m, b_m, x_m, x_fresh);
    x.load_member(mm, x_m);
    out.members[mm].iterations = s.iterations;
    out.members[mm].converged = s.converged;
    out.members[mm].relative_residual = s.relative_residual;
    out.members[mm].failure = s.failure;
    out.members[mm].residual_history = s.residual_history;
    out.iterations = std::max(out.iterations, s.iterations);
  }
  out.costs = comm.costs().since(snapshot);
  return out;
}

}  // namespace minipop::solver
