// Common interface, options and statistics for the barotropic solvers.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/halo.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/preconditioner.hpp"

namespace minipop::solver {

/// Typed outcome of an unsuccessful solve. Ordered by severity so the
/// recovery layer can agree on the worst failure across ranks with a
/// single max-reduction of the numeric value.
enum class FailureKind {
  kNone = 0,         ///< solve converged (or is still healthy)
  kMaxIters = 1,     ///< iteration budget exhausted without convergence
  kStagnated = 2,    ///< residual stopped decreasing for a full window
  kDiverged = 3,     ///< residual grew beyond divergence_factor * initial
  kBreakdown = 4,    ///< short-recurrence breakdown (sigma/rho/delta ~ 0)
  kNanDetected = 5,  ///< non-finite value in a reduced scalar
  // --- silent-data-corruption detections (integrity layer) ---
  kSilentDrift = 6,       ///< recurrence vs true residual drifted apart
  kCorruptReduction = 7,  ///< guarded allreduce halves disagreed
  kCorruptOperator = 8,   ///< ABFT stencil checksum mismatch
  // --- communication-state failures (require a collective resync) ---
  kCommTimeout = 9,     ///< a communication wait timed out (see ThreadComm)
  kCorruptPayload = 10, ///< a halo message failed its CRC check
};

inline const char* to_string(FailureKind k) {
  switch (k) {
    case FailureKind::kNone: return "none";
    case FailureKind::kMaxIters: return "max_iters";
    case FailureKind::kStagnated: return "stagnated";
    case FailureKind::kDiverged: return "diverged";
    case FailureKind::kBreakdown: return "breakdown";
    case FailureKind::kNanDetected: return "nan_detected";
    case FailureKind::kSilentDrift: return "silent_drift";
    case FailureKind::kCorruptReduction: return "corrupt_reduction";
    case FailureKind::kCorruptOperator: return "corrupt_operator";
    case FailureKind::kCommTimeout: return "comm_timeout";
    case FailureKind::kCorruptPayload: return "corrupt_payload";
  }
  return "?";
}

/// Failures at or above kCommTimeout left the communicator's collective
/// state desynchronized (aborted exchanges, wiped mailboxes): recovery
/// must run Communicator::resync() before issuing new collectives.
inline bool needs_resync(FailureKind k) {
  return k >= FailureKind::kCommTimeout;
}

/// Runtime knobs of the silent-data-corruption defense layer (DESIGN
/// §12). Everything defaults to OFF; with every knob off the solvers
/// are bitwise identical to a build without the layer and record zero
/// integrity counters (tested). Costs are per check, not per iteration.
struct IntegrityOptions {
  /// CRC32C every halo message payload (computed at pack, verified at
  /// unpack; one extra element per message on the wire). A mismatch
  /// throws CorruptPayloadError -> typed kCorruptPayload recovery.
  /// Consumed by HaloExchanger::set_crc() at model construction.
  bool halo_crc = false;
  /// Duplicate each convergence-check allreduce contribution and
  /// cross-check the two reduced halves bitwise (the fixed-order
  /// reduction makes them exactly equal when healthy). Doubles the
  /// payload of the guarded reductions only; mismatch types the
  /// affected member kCorruptReduction.
  bool guarded_reductions = false;
  /// Verify the ABFT operator checksum sum(b - r) == dot(c, x) with
  /// c = A·1 every `abft_interval` convergence checks (0 = off; ~one
  /// masked dot + one 2-element allreduce per audit). Catches stencil
  /// coefficient / memory corruption as kCorruptOperator.
  int abft_interval = 0;
  /// Relative tolerance of the ABFT identity (scaled by the checksum
  /// magnitude and sqrt(N·||b||²) to stay meaningful near convergence).
  double abft_tolerance = 1e-8;
  /// Recompute the true residual b - Ax every
  /// `true_residual_interval` convergence checks and compare it to the
  /// recurrence residual (0 = off). Only ChronGear's recurrence can
  /// drift; P-CSI checks the true residual already. Also audits the
  /// accepting convergence check, which is what turns "converged" from
  /// a recurrence claim into a verified statement. One residual sweep
  /// (with halo exchange) + one allreduce per audit.
  int true_residual_interval = 0;
  /// Allowed relative gap |rel_true - rel_recurrence| before the audit
  /// types the solve kSilentDrift.
  double drift_tolerance = 1e-8;

  /// True when any check that the SOLVERS consult is enabled
  /// (halo_crc lives in the halo engine, not the iteration cores).
  bool any_solver_check() const {
    return guarded_reductions || abft_interval > 0 ||
           true_residual_interval > 0;
  }
};

/// SolverOptions::halo_depth sentinel: resolve the depth from the perf
/// model at solver construction (perf::choose_halo_depth).
inline constexpr int kHaloDepthAuto = 0;
/// Widest supported communication-avoiding ghost zone.
inline constexpr int kMaxHaloDepth = 4;

struct SolverOptions {
  /// Convergence: ||r||_2 <= rel_tolerance * ||b||_2 over ocean points.
  double rel_tolerance = 1e-13;
  int max_iterations = 20000;
  /// POP checks convergence every `check_frequency` iterations (paper §5.2
  /// uses 10 for all solvers); the check costs one global reduction.
  int check_frequency = 10;
  /// Record the relative residual at every convergence check into
  /// SolveStats::residual_history (convergence-curve studies).
  bool record_residuals = false;
  /// Use the split-phase engine: halo exchanges hidden behind the
  /// interior stencil sweep, and reductions hidden behind computation
  /// wherever that is possible without changing the arithmetic. Iterates,
  /// iteration counts and residuals are bitwise identical to the
  /// blocking path; CostTracker's posted/exposed seconds show how much
  /// communication was actually hidden.
  bool overlap = false;
  /// Communication-avoiding ghost-zone depth k of the P-CSI cores:
  /// exchange a depth-k halo of {x, dx, r} once (one aggregated message
  /// per neighbour), then run k sweeps on shrinking extended domains with
  /// zero exchanges in between — halo rounds per solve drop ~k x at the
  /// price of redundant rim flops (CostCounters::redundant_flops).
  /// Iterates, residuals and iteration counts are bitwise identical to
  /// k = 1 (the redundant ghost computation executes the same FP ops on
  /// the same values the owner does). 1 = classic per-iteration
  /// exchange; 2..4 = depth-k groups; kHaloDepthAuto (0) picks k from
  /// the perf model (perf::choose_halo_depth). Only P-CSI with the
  /// diagonal/identity preconditioners runs deep; block-EVP needs its
  /// own exchange inside apply and falls back to k = 1 loudly. When
  /// k > 1 is in effect it takes precedence over `overlap` (the grouped
  /// sweeps leave no per-iteration exchange to hide).
  int halo_depth = 1;

  // --- convergence guards (piggybacked on the check_frequency
  // reduction; no extra collectives on the happy path) ---

  /// Declare kDiverged when the checked relative residual exceeds this
  /// multiple of the first checked relative residual. The default is far
  /// above anything a healthy solve produces, so enabling the guard does
  /// not change fault-free iterates.
  double divergence_factor = 1e8;
  /// Declare kStagnated when this many consecutive convergence checks
  /// fail to improve the best relative residual by at least
  /// stagnation_decrease. 0 disables the stagnation guard (default).
  int stagnation_window = 0;
  /// Minimum fractional improvement per check window that counts as
  /// progress for the stagnation guard.
  double stagnation_decrease = 1e-3;

  // --- batched multi-RHS path (BatchedSolver) ---

  /// Retirement threshold of the batched solvers: when, at a convergence
  /// check, the fraction of still-active members drops to or below this
  /// value, the batch is compacted — frozen members retire (their
  /// solution planes are final) and the survivors migrate into a
  /// narrower batch so subsequent sweeps stop paying for retired lanes.
  /// <= 0 disables retirement (frozen members ride along, masked);
  /// >= 1 compacts at the first check where any member froze. Retirement
  /// never changes any member's arithmetic, only the lane count.
  double batch_retire_fraction = 0.5;

  /// Silent-data-corruption checks (all off by default).
  IntegrityOptions integrity;

  SolverOptions() = default;
};

struct SolveStats {
  int iterations = 0;
  bool converged = false;
  double relative_residual = 0.0;
  /// Why the solve stopped, when converged is false (kNone otherwise).
  FailureKind failure = FailureKind::kNone;
  /// Always 0: the solvers run in fp64 only and have no refinement
  /// sweeps. Kept so the golden-pin and bench_e2e records keep their
  /// column.
  int refine_sweeps = 0;
  /// Per-rank communication/computation deltas recorded during the solve.
  comm::CostCounters costs;
  /// (iteration, relative residual) at each convergence check, when
  /// SolverOptions::record_residuals is set.
  std::vector<std::pair<int, double>> residual_history;
};

/// Shared failure-detection state for the solvers' convergence checks.
/// Feed it each *already-reduced* relative residual (so every rank sees
/// the same value and reaches the same verdict — no extra collectives);
/// it watches for NaN/Inf, divergence and stagnation per SolverOptions.
class ConvergenceGuard {
 public:
  explicit ConvergenceGuard(const SolverOptions& options)
      : options_(options) {}

  /// Returns kNone while the solve looks healthy.
  FailureKind check(double relative_residual) {
    if (!std::isfinite(relative_residual)) return FailureKind::kNanDetected;
    if (first_ < 0.0) first_ = relative_residual;
    if (relative_residual > options_.divergence_factor * first_ &&
        relative_residual > options_.rel_tolerance)
      return FailureKind::kDiverged;
    if (options_.stagnation_window > 0) {
      if (best_ < 0.0 ||
          relative_residual < best_ * (1.0 - options_.stagnation_decrease)) {
        best_ = relative_residual;
        stalled_ = 0;
      } else if (++stalled_ >= options_.stagnation_window) {
        return FailureKind::kStagnated;
      }
    }
    return FailureKind::kNone;
  }

  /// NaN screen for intermediate reduced scalars (rho, sigma, delta...).
  static bool finite(double v) { return std::isfinite(v); }

 private:
  const SolverOptions& options_;
  double first_ = -1.0;
  double best_ = -1.0;
  int stalled_ = 0;
};

/// Interface of the single-system solvers without a lockstep batched
/// core (PCG, pipelined CG). They enter the solver stack through
/// SequentialBatchedSolver; diagonal-preconditioned PCG is also the
/// last rung of the resilience fallback chain.
class IterativeSolver {
 public:
  virtual ~IterativeSolver() = default;

  /// Solve A x = b starting from the x passed in (often the previous time
  /// step's solution in POP). x is updated in place; collective across the
  /// communicator. `x_fresh` attests that x's halo was just refreshed, so
  /// the initial residual needs no boundary update (see HaloFreshness).
  virtual SolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::DistField& b,
      comm::DistField& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) = 0;

  virtual std::string name() const = 0;
};

}  // namespace minipop::solver
