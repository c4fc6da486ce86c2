// Lanczos estimation of the extreme eigenvalues of M^-1 A (paper §3,
// ref [28]). P-CSI needs the interval [nu, mu]; the paper finds that a
// Lanczos relative-change tolerance of 0.15 gives near-optimal P-CSI
// convergence after only a handful of steps (Fig. 3), costing about as
// much as a few ChronGear iterations.
//
// We run the M-inner-product Lanczos recurrence on the preconditioned
// operator: it needs only applications of A, applications of M^-1, and
// plain inner products (two global reductions per step, init-time only).
// The resulting tridiagonal matrix's extreme eigenvalues (Sturm
// bisection, src/linalg) converge to those of M^-1 A.
#pragma once

#include <cstdint>

#include "src/linalg/tridiag_eigen.hpp"
#include "src/solver/iterative_solver.hpp"
#include "src/solver/batched_solver.hpp"

namespace minipop::solver {

struct LanczosOptions {
  int max_steps = 60;
  /// Stop when both extreme eigenvalue estimates change by less than this
  /// relative amount between steps (paper: 0.15). Set <= 0 to run exactly
  /// max_steps (used by the Fig. 3 study).
  double rel_tolerance = 0.15;
  std::uint64_t seed = 7777;
  /// Widen the raw interval a little so Chebyshev stays contractive when
  /// the largest eigenvalue is slightly underestimated.
  double safety_margin = 0.05;
};

struct LanczosResult {
  EigenBounds bounds;   ///< safety-widened interval for P-CSI
  EigenBounds raw;      ///< unwidened estimates
  int steps = 0;
  bool converged = false;
  linalg::Tridiagonal tridiagonal;
};

LanczosResult estimate_eigenvalue_bounds(comm::Communicator& comm,
                                         const comm::HaloExchanger& halo,
                                         const DistOperator& a,
                                         Preconditioner& m,
                                         const LanczosOptions& options = {});

}  // namespace minipop::solver
