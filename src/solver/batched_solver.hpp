// Batched multi-RHS solvers: one lockstep Krylov/Chebyshev iteration
// advancing B independent right-hand sides over the SAME operator and
// decomposition (paper §6 ensemble workload, Fig. 13). This is the one
// execution core of the solver stack: a single solve is the B = 1 case
// (solve_one), so every fix and every decorator lands once.
//
// Why batching wins: every iteration's stencil sweep reloads the same
// nine coefficient planes regardless of how many members ride along, the
// halo exchange sends one message per neighbor regardless of payload,
// and the convergence reduction is one allreduce whether it carries 1
// or B partial sums. Batching B members amortizes all three: ~B× fewer
// messages and reductions per solve, coefficients loaded once per cell
// instead of once per cell per member.
//
// Bit-for-bit contract: member m of a batched solve produces EXACTLY
// the iterates, iteration count, residuals and solution bits of the
// same member solved alone at B = 1 (see kernels.hpp — batched kernels
// keep the per-point expression and accumulation order at every width,
// and vector allreduces combine element-wise in the same fixed rank
// order as one-element ones). tests/test_golden_pins.cpp pins the B = 1
// results of every configuration.
//
// Lockstep + masking: members share one iteration loop. A member that
// converges (or trips a guard) at a convergence check FREEZES — its x
// plane stops updating, exactly as if it had been solved alone — and
// its lanes ride along masked until the solve ends: a batch keeps its
// width and member order for the whole solve. See DESIGN.md §10.
//
// Three lockstep cores share this machinery: P-CSI, ChronGear and PCG.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/dist_field.hpp"
#include "src/comm/halo.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/iterative_solver.hpp"
#include "src/solver/preconditioner.hpp"

namespace minipop::solver {

/// Estimated extreme eigenvalues of M^-1 A (from Lanczos; see
/// lanczos.hpp) — the Chebyshev interval of P-CSI.
struct EigenBounds {
  double nu = 0.0;  ///< smallest eigenvalue estimate
  double mu = 0.0;  ///< largest eigenvalue estimate
};

/// Outcome of one member of a batched solve: the SolveStats fields that
/// are per-member meaningful.
struct BatchMemberStats {
  /// Lockstep iteration at which this member froze (converged or
  /// failed), or the final iteration count if it ran to the end.
  int iterations = 0;
  bool converged = false;
  double relative_residual = 0.0;
  FailureKind failure = FailureKind::kNone;
  /// (iteration, relative residual) at each of this member's
  /// convergence checks, when SolverOptions::record_residuals is set.
  /// After a recovery it holds the final attempt's checks.
  std::vector<std::pair<int, double>> residual_history;
};

/// Outcome of a batched solve.
struct BatchSolveStats {
  /// Per-member outcomes, indexed by the member's position in the batch
  /// handed to solve().
  std::vector<BatchMemberStats> members;
  /// Total lockstep iterations the batch ran (max over members).
  int iterations = 0;
  /// Always 0: the solvers run in fp64 only and have no refinement
  /// sweeps. Kept so the golden-pin and bench_e2e records keep their
  /// column.
  int refine_sweeps = 0;
  /// Per-rank communication/computation deltas during the whole batch
  /// solve (shared across members — halos and reductions are joint).
  comm::CostCounters costs;
};

/// Interface of the batched solvers and their decorators. A guard
/// failure (divergence/stagnation/NaN) freezes THAT member and the
/// batch keeps iterating the others. The fault-injection halo payload
/// and solver-vector hooks arm on width-1 solves only; members of wider
/// batches recover member by member (DESIGN.md §10).
class BatchedSolver {
 public:
  virtual ~BatchedSolver() = default;

  /// Solve A x_m = b_m for every member, in place, starting from the
  /// x planes passed in. Collective across the communicator; all ranks
  /// must pass batches over the same decomposition with the same nb.
  virtual BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) = 0;

  virtual std::string name() const = 0;
};

/// Lockstep batched P-CSI. The Chebyshev scalar recurrence (omega,
/// gamma, alpha) depends only on the eigenvalue bounds — member
/// independent — so all members genuinely share one iteration schedule;
/// per-member state is just the field planes and the convergence mask.
class BatchedPcsiSolver final : public BatchedSolver {
 public:
  BatchedPcsiSolver(EigenBounds bounds, const SolverOptions& options = {});

  /// SolverOptions::halo_depth k > 1 with a pointwise preconditioner
  /// runs the depth-k schedule (DESIGN.md §13): one exchange per group
  /// of up to k iterations, bitwise identical to depth 1. It needs an
  /// operator built with rim >= k - 1 and throws otherwise.
  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return "pcsi"; }

  /// Replace the Chebyshev interval (BatchedResilientSolver's Lanczos
  /// re-estimation reaches through this).
  void set_bounds(EigenBounds bounds);

 private:
  EigenBounds bounds_;
  SolverOptions opt_;
};

/// Lockstep batched ChronGear (s-step preconditioned CG). Per-member
/// scalar state {rho, sigma} with all members' fused {rho, delta, norm}
/// partial sums riding ONE grouped vector allreduce per iteration.
class BatchedChronGearSolver final : public BatchedSolver {
 public:
  explicit BatchedChronGearSolver(const SolverOptions& options = {});

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return "chrongear"; }

 private:
  SolverOptions opt_;
};

/// Lockstep batched textbook PCG, the historical POP solver that
/// ChronGear improves on. Per-member rho, and two vector allreduces per
/// iteration: {r·z, plus ||r||² at checks} and p·q. Its sweeps stay
/// unfused and depth-1: SolverOptions::halo_depth is ignored.
class BatchedPcgSolver final : public BatchedSolver {
 public:
  explicit BatchedPcgSolver(const SolverOptions& options = {});

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return "pcg"; }

 private:
  SolverOptions opt_;
};

/// Solve the single system A x = b through `solver`: a DistField is the
/// width-1 batch, so b and x pass to the stack as they are (x's halo
/// freshness carries over). They must be distinct fields on the
/// operator's Decomposition object. This is BarotropicSolver::solve and
/// the entry point for one-off solves.
SolveStats solve_one(BatchedSolver& solver, comm::Communicator& comm,
                     const comm::HaloExchanger& halo, const DistOperator& a,
                     Preconditioner& m, const comm::DistField& b,
                     comm::DistField& x,
                     comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale);

}  // namespace minipop::solver
