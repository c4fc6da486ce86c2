// Decorators over the batched execution core. BarotropicSolver stacks
// them the same way for every batch width (a single solve is a width-1
// batch):
//
//   BatchedMixedPrecisionSolver — fp32/mixed arithmetic over batched
//     lockstep sweeps. kFp32 demotes the whole batch and runs the
//     core's fp32 storage path; kMixed runs an fp64 outer refinement
//     loop whose per-sweep correction is ONE batched fp32 inner solve
//     (members that have reached the fp64 tolerance get their residual
//     plane zeroed, so the inner solve's zero-RHS early-out freezes
//     them instantly and the batch stops paying for them after the
//     next retirement compaction).
//
//   BatchedResilientSolver — detect → recover → fall back with
//     per-member recovery: each attempt ends with one B-element kMax
//     agreement allreduce of the members' failure codes; members that
//     converged are final, and ONLY the failed members are gathered
//     into a narrow recovery sub-batch that walks the chain (repair a
//     corrupted operator → escalate precision → re-estimate the P-CSI
//     bounds → checkpoint restart → fallback solvers, ending at
//     diagonal-preconditioned PCG). One diverging member therefore
//     never freezes or restarts the healthy rest of the batch.
//
//   SequentialBatchedSolver — owns a solver without a lockstep batched
//     core (PCG, pipelined CG) and runs it member by member, so those
//     solvers enter the same decorated stack — just without the
//     fused-lane amortization.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/solver/batched_solver.hpp"
#include "src/solver/lanczos.hpp"

namespace minipop::solver {

/// Mixed-precision decorator: fp32 inner sweeps under an fp64 guard.
/// Per SolverOptions::precision:
///   kFp64  — delegate to the wrapped solver untouched (bit-identical).
///   kFp32  — the whole solve in float: fp32 fields, fp32 stencil
///            coefficients, half-size halo messages. Reductions still
///            accumulate in double, so the convergence check measures
///            the true fp32 residual; round-off floors the relative
///            residual near 1e-7 (a tighter tolerance stalls there and
///            the stagnation guard reports kStagnated).
///   kMixed — iterative refinement: an fp64 outer loop computes the true
///            residual r = b - A x and checks it against the caller's
///            fp64 tolerance; each sweep demotes r, solves A d = r in
///            fp32 to a loose inner tolerance, and applies x += d in
///            fp64 (axpy_promoted). One reduction per outer sweep.
/// `fp64_twin` must be a BatchedPcsiSolver or BatchedChronGearSolver; it
/// defines the lockstep iteration run at every precision and is the
/// target BatchedResilientSolver escalates to (set_forced_fp64).
class BatchedMixedPrecisionSolver final : public BatchedSolver {
 public:
  BatchedMixedPrecisionSolver(std::unique_ptr<BatchedSolver> fp64_twin,
                              const SolverOptions& options);

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  /// fp32 storage entry point: delegate straight to the twin's fp32
  /// core (the decorator's own job — choosing the arithmetic — is
  /// already decided by the caller here).
  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch32& b, comm::DistFieldBatch32& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  /// e.g. "mixed(batched_pcsi)"; the precision prefix names the
  /// configured mode even while escalation forces fp64.
  std::string name() const override;

  Precision precision() const { return opt_.precision; }
  /// Escalation switch (BatchedResilientSolver): true routes solves
  /// through the fp64 twin until reset.
  void set_forced_fp64(bool forced) { forced_fp64_ = forced; }
  bool forced_fp64() const { return forced_fp64_; }

  BatchedSolver& fp64_twin() { return *twin_; }
  /// The wrapped batched P-CSI, or nullptr for a ChronGear twin (bounds
  /// re-estimation reaches through this; the fp32/mixed paths read the
  /// twin's bounds at solve time, so set_bounds needs no mirroring).
  BatchedPcsiSolver* pcsi() { return pcsi_; }

 private:
  BatchSolveStats solve_fp32(comm::Communicator& comm,
                             const comm::HaloExchanger& halo,
                             const DistOperator& a, Preconditioner& m,
                             const comm::DistFieldBatch& b,
                             comm::DistFieldBatch& x);
  BatchSolveStats solve_mixed(comm::Communicator& comm,
                              const comm::HaloExchanger& halo,
                              const DistOperator& a, Preconditioner& m,
                              const comm::DistFieldBatch& b,
                              comm::DistFieldBatch& x,
                              comm::HaloFreshness x_fresh);
  /// Fresh inner core for one refinement solve, configured with the
  /// refine_* knobs and the twin's CURRENT eigenvalue bounds.
  std::unique_ptr<BatchedSolver> make_inner() const;

  std::unique_ptr<BatchedSolver> twin_;
  BatchedPcsiSolver* pcsi_ = nullptr;     ///< view into twin_, if P-CSI
  BatchedChronGearSolver* cg_ = nullptr;  ///< view into twin_, if ChronGear
  SolverOptions opt_;
  bool forced_fp64_ = false;
};

struct RecoveryPolicy {
  /// Checkpoint restarts of the primary solver before falling back.
  int max_restarts = 2;
  /// Re-run Lanczos (once per solve) when a P-CSI primary diverges or
  /// stagnates — the classic stale-interval failure.
  bool reestimate_bounds = true;
  LanczosOptions lanczos;
  /// Walk the fallback chain after the primary is out of options.
  bool fallback = true;
};

/// One recorded recovery transition.
struct RecoveryEvent {
  FailureKind failure;  ///< worst failure the attempt's members reported
  std::string solver;   ///< solver that failed
  /// repair_operator | escalate_precision | reestimate_bounds | restart |
  /// fallback | give_up
  std::string action;
  int attempt;          ///< 0-based attempt ordinal within the solve
  int iterations;       ///< iterations spent in the failed attempt
  /// How many members of the batch failed together and entered the
  /// transition (1 for a single solve).
  int members = 1;
};

/// Resilience decorator with per-member recovery (see the file
/// comment). Every attempt ends with the agreement reduction — the only
/// collective the decorator adds to a fault-free solve. A
/// CommTimeoutError or CorruptPayloadError from an attempt is absorbed:
/// the team is fenced with Communicator::resync() and the attempt's
/// members are typed kCommTimeout / kCorruptPayload. Every transition
/// is recorded as a RecoveryEvent.
class BatchedResilientSolver final : public BatchedSolver {
 public:
  explicit BatchedResilientSolver(std::unique_ptr<BatchedSolver> primary,
                                  RecoveryPolicy policy = {});

  /// Append a fallback stage (tried in order). With
  /// `use_diagonal_precond` the stage runs with a diagonal
  /// preconditioner built from the operator instead of the caller's —
  /// the last-resort configuration that cannot itself be the source of
  /// the failure.
  void add_fallback(std::unique_ptr<BatchedSolver> solver,
                    bool use_diagonal_precond = false);

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override;

  /// Recovery transitions recorded over this solver's lifetime.
  const std::vector<RecoveryEvent>& events() const { return events_; }
  void clear_events() { events_.clear(); }

  BatchedSolver& primary() { return *chain_.front().solver; }

 private:
  struct Stage {
    std::unique_ptr<BatchedSolver> solver;
    bool use_diagonal_precond = false;
  };

  /// Push a snapshot of the full-width x onto the checkpoint ring
  /// (keeps the two most recent solve-entry snapshots).
  void checkpoint(const comm::DistFieldBatch& x);

  std::vector<Stage> chain_;
  RecoveryPolicy policy_;
  std::vector<RecoveryEvent> events_;
  std::deque<comm::DistFieldBatch> ring_;  ///< [0] = newest entry snapshot
};

/// A solver without a lockstep batched core (PCG, pipelined CG) as a
/// BatchedSolver: members are solved one at a time through scratch
/// planes. Owns the wrapped solver.
class SequentialBatchedSolver final : public BatchedSolver {
 public:
  explicit SequentialBatchedSolver(std::unique_ptr<IterativeSolver> scalar);

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  /// The wrapped solver's name (e.g. "pcg").
  std::string name() const override { return scalar_->name(); }

 private:
  std::unique_ptr<IterativeSolver> scalar_;
};

}  // namespace minipop::solver
