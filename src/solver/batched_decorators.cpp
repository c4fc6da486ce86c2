#include "src/solver/batched_decorators.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "src/solver/field_ops.hpp"
#include "src/solver/preconditioner.hpp"
#include "src/util/error.hpp"
#include "src/util/log.hpp"

namespace minipop::solver {

namespace {

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

  // The P-CSI whose bounds the re-estimation rung replaces, if any.
  BatchedPcsiSolver* pcsi =
      dynamic_cast<BatchedPcsiSolver*>(chain_.front().solver.get());

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

    enum class Act { kRepair, kReestimate, kRestart, kFallback, kGiveUp };
    Act act = Act::kGiveUp;
    if (worst == FailureKind::kCorruptOperator && !operator_repaired) {
      // A corrupted operator is repaired in place, once per solve: no
      // other rung can cure bad coefficients (every retry would re-run
      // the same wrong operator).
      act = Act::kRepair;
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
