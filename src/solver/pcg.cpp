#include "src/solver/pcg.hpp"

#include <cmath>

#include "src/solver/field_ops.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

SolveStats PcgSolver::solve(comm::Communicator& comm,
                            const comm::HaloExchanger& halo,
                            const DistOperator& a, Preconditioner& m,
                            const comm::DistField& b, comm::DistField& x,
                            comm::HaloFreshness x_fresh) {
  const auto snapshot = comm.costs().counters();
  SolveStats stats;

  comm::DistField r(a.decomposition(), a.rank(), x.halo());
  comm::DistField z(a.decomposition(), a.rank(), x.halo());
  comm::DistField p(a.decomposition(), a.rank(), x.halo());
  comm::DistField q(a.decomposition(), a.rank(), x.halo());

  const double b_norm2 = comm.allreduce_sum(a.local_dot(comm, b, b));
  if (b_norm2 == 0.0) {
    fill_interior(x, 0.0);
    stats.converged = true;
    stats.costs = comm.costs().since(snapshot);
    return stats;
  }
  const double threshold2 =
      opt_.rel_tolerance * opt_.rel_tolerance * b_norm2;

  a.residual(comm, halo, b, x, r, x_fresh);

  double rho_old = 1.0;
  fill_interior(p, 0.0);
  ConvergenceGuard guard(opt_);

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    stats.iterations = k;
    m.apply(comm, r, z);

    // Reduction 1: rho = r.z, fused with the periodic convergence check.
    const bool check = (k % opt_.check_frequency == 0);
    double local[2] = {a.local_dot(comm, r, z),
                       check ? a.local_dot(comm, r, r) : 0.0};
    comm.allreduce(std::span<double>(local, check ? 2 : 1),
                   comm::ReduceOp::kSum);
    const double rho = local[0];
    if (check) {
      const double rel = std::sqrt(local[1] / b_norm2);
      if (opt_.record_residuals) stats.residual_history.emplace_back(k, rel);
      if (local[1] <= threshold2) {
        stats.converged = true;
        stats.relative_residual = rel;
        break;
      }
      stats.failure = guard.check(rel);
      if (stats.failure != FailureKind::kNone) break;
    }

    const double one = 1.0;
    const double beta = rho / rho_old;
    lincomb(comm, &one, z, &beta, p, a.span_plan());  // p = z + beta p

    a.apply_batch(comm, halo, p, q);

    // Reduction 2: sigma = p.q.
    const double sigma = comm.allreduce_sum(a.local_dot(comm, p, q));
    if (!ConvergenceGuard::finite(rho) || !ConvergenceGuard::finite(sigma)) {
      stats.failure = FailureKind::kNanDetected;
      break;
    }
    if (sigma == 0.0) {
      stats.failure = FailureKind::kBreakdown;
      break;
    }
    const double alpha = rho / sigma;
    const double neg_alpha = -alpha;
    axpy(comm, &alpha, p, x, a.span_plan());
    axpy(comm, &neg_alpha, q, r, a.span_plan());
    rho_old = rho;
  }

  if (!stats.converged) {
    if (stats.failure == FailureKind::kNone)
      stats.failure = FailureKind::kMaxIters;
    stats.relative_residual =
        std::sqrt(comm.allreduce_sum(a.local_dot(comm, r, r)) / b_norm2);
  }
  stats.costs = comm.costs().since(snapshot);
  return stats;
}

}  // namespace minipop::solver
