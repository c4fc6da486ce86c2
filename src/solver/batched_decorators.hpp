// The resilience decorator over the batched execution core.
// BarotropicSolver stacks it the same way for every solver kind and
// batch width (a single solve is a width-1 batch):
//
//   BatchedResilientSolver — detect → recover → fall back with
//     per-member recovery: each attempt ends with one B-element kMax
//     agreement allreduce of the members' failure codes; members that
//     converged are final, and ONLY the failed members are gathered
//     into a narrow recovery sub-batch that walks the chain (repair a
//     corrupted operator → re-estimate the P-CSI bounds → checkpoint
//     restart → fallback solvers, ending at diagonal-preconditioned
//     PCG). One diverging member therefore never freezes or restarts
//     the healthy rest of the batch.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/solver/batched_solver.hpp"
#include "src/solver/lanczos.hpp"

namespace minipop::solver {

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
  /// repair_operator | reestimate_bounds | restart | fallback | give_up
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

}  // namespace minipop::solver
