#include "src/solver/pipelined_cg.hpp"

#include <cmath>

#include "src/solver/field_ops.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {
/// Recompute r/u/w from their definitions every this many iterations.
constexpr int kReplacementFrequency = 25;
}  // namespace

SolveStats PipelinedCgSolver::solve(comm::Communicator& comm,
                                    const comm::HaloExchanger& halo,
                                    const DistOperator& a, Preconditioner& m,
                                    const comm::DistField& b,
                                    comm::DistField& x,
                                    comm::HaloFreshness x_fresh) {
  const auto snapshot = comm.costs().counters();
  SolveStats stats;

  const auto& d = a.decomposition();
  const int rank = a.rank();
  const int h = x.halo();
  comm::DistField r(d, rank, h), u(d, rank, h), w(d, rank, h);
  comm::DistField mm(d, rank, h), nn(d, rank, h);
  comm::DistField z(d, rank, h), q(d, rank, h), s(d, rank, h),
      p(d, rank, h);

  const double b_norm2 = a.global_dot(comm, b, b);
  if (b_norm2 == 0.0) {
    fill_interior(x, 0.0);
    stats.converged = true;
    stats.costs = comm.costs().since(snapshot);
    return stats;
  }
  const double threshold2 =
      opt_.rel_tolerance * opt_.rel_tolerance * b_norm2;

  if (opt_.overlap) {
    a.residual_overlapped(comm, halo, b, x, r, x_fresh);  // r0 = b - A x0
    m.apply(comm, r, u);                                  // u0 = M^-1 r0
    a.apply_overlapped(comm, halo, u, w);                 // w0 = A u0
  } else {
    a.residual(comm, halo, b, x, r, x_fresh);
    m.apply(comm, r, u);
    a.apply(comm, halo, u, w);
  }

  double gamma_old = 0.0;
  double alpha_old = 0.0;
  ConvergenceGuard guard(opt_);

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    stats.iterations = k;

    // The single fused reduction of the iteration (local dots in one
    // sweep). With SolverOptions::overlap it is a real iallreduce that
    // flies behind the precond+matvec — the Ghysels & Vanroose point of
    // the pipelined formulation; m_k and n_k depend only on w_k, never
    // on the reduction result. (On the final converged check the
    // overlap path has already computed the scratch m/n pair — one
    // speculative precond+matvec more than blocking; x, r, iteration
    // counts and residuals are still bitwise identical.)
    const bool check = (k % opt_.check_frequency == 0);
    double local[3];
    a.local_dot3(comm, r, u, w, check, local);
    if (opt_.overlap) {
      comm::Request red = comm.iallreduce(
          std::span<double>(local, check ? 3 : 2), comm::ReduceOp::kSum);
      m.apply(comm, w, mm);                  // m_k = M^-1 w_k
      a.apply_overlapped(comm, halo, mm, nn);  // n_k = A m_k
      red.wait();
    } else {
      comm.allreduce(std::span<double>(local, check ? 3 : 2),
                     comm::ReduceOp::kSum);
    }
    const double gamma = local[0];
    const double delta = local[1];
    if (check) {
      const double rel = std::sqrt(local[2] / b_norm2);
      if (opt_.record_residuals) stats.residual_history.emplace_back(k, rel);
      if (local[2] <= threshold2) {
        stats.converged = true;
        stats.relative_residual = rel;
        break;
      }
      stats.failure = guard.check(rel);
      if (stats.failure != FailureKind::kNone) break;
    }

    // Work that overlaps the reduction in the pipelined formulation
    // (already issued above when overlap is on).
    if (!opt_.overlap) {
      m.apply(comm, w, mm);        // m_k = M^-1 w_k
      a.apply(comm, halo, mm, nn);  // n_k = A m_k
    }

    if (!ConvergenceGuard::finite(gamma) ||
        !ConvergenceGuard::finite(delta)) {
      stats.failure = FailureKind::kNanDetected;
      break;
    }
    double beta, alpha;
    if (k == 1) {
      beta = 0.0;
      if (delta == 0.0) {
        stats.failure = FailureKind::kBreakdown;
        break;
      }
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_old;
      const double denom = delta - beta * gamma / alpha_old;
      if (denom == 0.0 || !ConvergenceGuard::finite(denom)) {
        stats.failure = FailureKind::kBreakdown;
        break;
      }
      alpha = gamma / denom;
    }

    if (k == 1) {
      copy_interior(nn, z);
      copy_interior(mm, q);
      copy_interior(w, s);
      copy_interior(u, p);
    } else {
      lincomb(comm, 1.0, nn, beta, z, a.span_plan());  // z = n + beta z
      lincomb(comm, 1.0, mm, beta, q, a.span_plan());  // q = m + beta q
      lincomb(comm, 1.0, w, beta, s, a.span_plan());   // s = w + beta s
      lincomb(comm, 1.0, u, beta, p, a.span_plan());   // p = u + beta p
    }
    axpy(comm, alpha, p, x, a.span_plan());
    axpy(comm, -alpha, s, r, a.span_plan());
    axpy(comm, -alpha, q, u, a.span_plan());
    axpy(comm, -alpha, z, w, a.span_plan());

    // Residual replacement (Cools & Vanroose): the auxiliary
    // recurrences accumulate rounding error much faster than plain CG —
    // badly so with a strong preconditioner — and the attainable
    // accuracy stagnates. Periodically recompute r, u, w from their
    // definitions; the search-direction recurrences continue unchanged.
    if (k % kReplacementFrequency == 0) {
      if (opt_.overlap) {
        a.residual_overlapped(comm, halo, b, x, r);
        m.apply(comm, r, u);
        a.apply_overlapped(comm, halo, u, w);
      } else {
        a.residual(comm, halo, b, x, r);
        m.apply(comm, r, u);
        a.apply(comm, halo, u, w);
      }
    }

    gamma_old = gamma;
    alpha_old = alpha;
  }

  if (!stats.converged) {
    if (stats.failure == FailureKind::kNone)
      stats.failure = FailureKind::kMaxIters;
    stats.relative_residual =
        std::sqrt(a.global_dot(comm, r, r) / b_norm2);
  }
  stats.costs = comm.costs().since(snapshot);
  return stats;
}

}  // namespace minipop::solver
