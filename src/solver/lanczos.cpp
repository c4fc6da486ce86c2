#include "src/solver/lanczos.hpp"

#include <cmath>

#include "src/solver/field_ops.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace minipop::solver {

namespace {

/// Deterministic start vector: pseudo-random per *global* cell index, so
/// the vector (and thus the estimates) is independent of the block layout
/// and rank count.
void fill_random_masked(const DistOperator& a, comm::DistField& v,
                        std::uint64_t seed) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = v.info(lb);
    const auto& mask = a.block_mask(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) {
        if (!mask(i, j)) {
          v.at(lb, i, j) = 0.0;
          continue;
        }
        const std::uint64_t cell =
            static_cast<std::uint64_t>(info.j0 + j) *
                static_cast<std::uint64_t>(a.decomposition().nx_global()) +
            static_cast<std::uint64_t>(info.i0 + i);
        util::SplitMix64 sm(seed ^ (cell * 0x9e3779b97f4a7c15ULL + 1));
        v.at(lb, i, j) =
            2.0 * (static_cast<double>(sm.next() >> 11) * 0x1.0p-53) - 1.0;
      }
  }
}

}  // namespace

LanczosResult estimate_eigenvalue_bounds(comm::Communicator& comm,
                                         const comm::HaloExchanger& halo,
                                         const DistOperator& a,
                                         Preconditioner& m,
                                         const LanczosOptions& options) {
  MINIPOP_REQUIRE(options.max_steps >= 1,
                  "max_steps=" << options.max_steps);
  LanczosResult result;

  const auto& decomp = a.decomposition();
  const int rank = a.rank();
  comm::DistField q(decomp, rank, comm::DistField::kDefaultHalo);
  comm::DistField q_prev(decomp, rank, comm::DistField::kDefaultHalo);
  comm::DistField zq(decomp, rank, comm::DistField::kDefaultHalo);
  comm::DistField w(decomp, rank, comm::DistField::kDefaultHalo);
  comm::DistField zw(decomp, rank, comm::DistField::kDefaultHalo);

  fill_random_masked(a, w, options.seed);
  m.apply(comm, w, zw);
  double beta = std::sqrt(comm.allreduce_sum(a.local_dot(comm, w, zw)));
  MINIPOP_REQUIRE(beta > 0.0, "Lanczos start vector has zero M-norm "
                              "(empty ocean?)");
  const double inv_beta = 1.0 / beta;
  copy_interior(w, q);
  scale(comm, &inv_beta, q, a.span_plan());
  copy_interior(zw, zq);
  scale(comm, &inv_beta, zq, a.span_plan());
  fill_interior(q_prev, 0.0);
  double beta_prev = 0.0;

  double last_min = 0.0, last_max = 0.0;
  for (int step = 1; step <= options.max_steps; ++step) {
    // w = A zq - beta_prev * q_prev.
    a.apply_batch(comm, halo, zq, w);
    const double neg_beta_prev = -beta_prev;
    if (beta_prev != 0.0)
      axpy(comm, &neg_beta_prev, q_prev, w, a.span_plan());

    const double alpha = comm.allreduce_sum(a.local_dot(comm, zq, w));
    const double neg_alpha = -alpha;
    axpy(comm, &neg_alpha, q, w, a.span_plan());

    m.apply(comm, w, zw);
    double beta2 = comm.allreduce_sum(a.local_dot(comm, w, zw));
    MINIPOP_REQUIRE(beta2 > -1e-6 * std::abs(alpha),
                    "Lanczos found w^T M^-1 w = "
                        << beta2
                        << " < 0: the preconditioner is not SPD "
                           "(broken block solve?)");
    // Clamp tiny negative round-off.
    beta2 = std::max(beta2, 0.0);
    const double beta_new = std::sqrt(beta2);

    result.tridiagonal.d.push_back(alpha);
    result.steps = step;

    auto ext = linalg::tridiag_extreme_eigenvalues(result.tridiagonal);
    const bool have_last = step > 1;
    const bool small_change =
        have_last && options.rel_tolerance > 0.0 &&
        std::abs(ext.min - last_min) <=
            options.rel_tolerance * std::abs(ext.min) &&
        std::abs(ext.max - last_max) <=
            options.rel_tolerance * std::abs(ext.max);
    last_min = ext.min;
    last_max = ext.max;

    if (small_change) {
      result.converged = true;
      break;
    }
    if (beta_new <= 1e-14 * std::abs(alpha)) {
      // Invariant subspace found: estimates are exact.
      result.converged = true;
      break;
    }
    if (step == options.max_steps) break;

    result.tridiagonal.e.push_back(beta_new);
    const double inv_beta_new = 1.0 / beta_new;
    copy_interior(q, q_prev);
    copy_interior(w, q);
    scale(comm, &inv_beta_new, q, a.span_plan());
    copy_interior(zw, zq);
    scale(comm, &inv_beta_new, zq, a.span_plan());
    beta_prev = beta_new;
  }

  // Trim e to match d (the loop may exit right after pushing d).
  while (result.tridiagonal.e.size() + 1 >
         result.tridiagonal.d.size())
    result.tridiagonal.e.pop_back();

  auto ext = linalg::tridiag_extreme_eigenvalues(result.tridiagonal);
  result.raw = EigenBounds{ext.min, ext.max};
  MINIPOP_REQUIRE(ext.min > 0.0,
                  "Lanczos produced non-positive smallest eigenvalue "
                      << ext.min << " — operator or preconditioner not SPD?");
  // Lanczos underestimates the spectrum width from inside; widen for a
  // contractive Chebyshev interval.
  const double margin = options.safety_margin;
  result.bounds = EigenBounds{ext.min * (1.0 - margin),
                              ext.max * (1.0 + margin)};
  if (result.bounds.nu <= 0.0) result.bounds.nu = ext.min * 0.5;
  return result;
}

}  // namespace minipop::solver
