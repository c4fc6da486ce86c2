// High-level facade mirroring POP's solvers module: pick a solver
// (pcg / chrongear / pcsi / pipecg) and a preconditioner (identity /
// diagonal / block-evp), and get a ready-to-call barotropic solver.
// P-CSI's eigenvalue interval is estimated with Lanczos at construction
// (collective), exactly as POP does at initialization.
//
// There is one solver stack (DESIGN.md §11): the batched core for P-CSI
// and ChronGear (or SequentialBatchedSolver around PCG / pipelined CG),
// under the resilience decorator. A single solve runs it as a width-1
// batch.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/evp/block_evp_preconditioner.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/lanczos.hpp"

namespace minipop::solver {

enum class SolverKind { kPcg, kChronGear, kPcsi, kPipelinedCg };
enum class PreconditionerKind { kIdentity, kDiagonal, kBlockEvp };

SolverKind solver_kind_from_string(const std::string& s);
PreconditionerKind preconditioner_kind_from_string(const std::string& s);
std::string to_string(SolverKind k);
std::string to_string(PreconditionerKind k);

struct SolverConfig {
  SolverKind solver = SolverKind::kChronGear;
  PreconditionerKind preconditioner = PreconditionerKind::kDiagonal;
  SolverOptions options;
  evp::BlockEvpOptions evp;
  LanczosOptions lanczos;
  /// Route solves through the BatchedResilientSolver decorator
  /// (operator repair, P-CSI bounds re-estimation, checkpoint
  /// restarts, fallback chain down to diagonal-preconditioned PCG). Fault-free iterates are bitwise
  /// identical with or without it; the decorator adds one agreement
  /// reduction per solve.
  bool resilient = true;
  RecoveryPolicy recovery;
};

/// One rank's fully-assembled barotropic solver. Construction is
/// collective across the communicator when the solver is P-CSI (Lanczos
/// runs inside).
class BarotropicSolver {
 public:
  BarotropicSolver(comm::Communicator& comm, const comm::HaloExchanger& halo,
                   const grid::CurvilinearGrid& grid,
                   const util::Field& depth,
                   const grid::NinePointStencil& stencil,
                   const grid::Decomposition& decomp,
                   const SolverConfig& config);

  /// Solve A x = b (x is both initial guess and result) as a width-1
  /// batch of the solver stack. Collective. `x_fresh` attests that x's
  /// halo was refreshed since its interior was last written (the
  /// model's barotropic step guarantees this).
  SolveStats solve(comm::Communicator& comm, const comm::DistField& b,
                   comm::DistField& x,
                   comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale);

  /// Solve the B independent systems A x_i = b_i as one batch of the
  /// same stack. P-CSI and ChronGear interleave the members into a DistFieldBatch and advance them in lockstep: ~B×
  /// fewer halo messages and allreduces, per-member results
  /// bit-identical to B single solves. PCG and pipelined CG have no
  /// lockstep core and solve member by member (see has_batched_path()).
  BatchSolveStats solve_batch(
      comm::Communicator& comm,
      std::span<const comm::DistField* const> bs,
      std::span<comm::DistField* const> xs,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale);

  /// True when this configuration runs the fused lockstep batched core
  /// (P-CSI or ChronGear). False means solve_batch() still works but
  /// solves member by member.
  bool has_batched_path() const {
    return config_.solver == SolverKind::kPcsi ||
           config_.solver == SolverKind::kChronGear;
  }

  const DistOperator& op() const { return op_; }
  Preconditioner& preconditioner() { return *precond_; }
  const SolverConfig& config() const { return config_; }
  /// Lanczos estimation details; only set for P-CSI.
  const std::optional<LanczosResult>& lanczos() const { return lanczos_; }
  /// The resilience decorator, or nullptr when config.resilient is off.
  BatchedResilientSolver* resilient() { return resilient_; }
  /// The assembled solver stack (never null).
  BatchedSolver& batched() { return *stack_; }
  /// e.g. "pcsi+block-evp".
  std::string description() const;

 private:
  SolverConfig config_;
  const comm::HaloExchanger* halo_;
  DistOperator op_;
  std::unique_ptr<Preconditioner> precond_;
  std::unique_ptr<BatchedSolver> stack_;
  BatchedResilientSolver* resilient_ = nullptr;  ///< view into stack_
  std::optional<LanczosResult> lanczos_;
};

}  // namespace minipop::solver
