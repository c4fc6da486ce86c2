// Silent-data-corruption defense helpers shared by the solver stack
// (DESIGN.md §12): guarded (duplicated) allreduce contributions, the
// ABFT operator-checksum verdict, and the recurrence-vs-true-residual
// drift audit. Everything here is gated by IntegrityOptions and is a
// plain pass-through when the corresponding knob is off — the reduced
// values are bitwise identical either way (the guarded form reduces
// each duplicated slot through the same deterministic fixed-rank-order
// combination, so the primary half equals the unguarded result exactly).
#pragma once

#include <span>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/iterative_solver.hpp"

namespace minipop::solver {

/// Sum-allreduce of `values` in place with an optional duplication
/// guard. Arms the reduction-corruption fault hook on the local
/// contribution and reduces either `values` directly (guard off) or a
/// [v|v] doubled buffer (guard on; the hook corrupts only the primary
/// half — duplicated state is what the guard exists to cross-check).
/// With the guard on it compares the two reduced halves bitwise,
/// copies the primary half back into `values`, counts one integrity
/// check, and returns true on any mismatch (appending mismatched slot
/// indices to *bad). A mismatch verdict is identical on every rank —
/// all ranks compare the same reduced buffer — so recovery needs no
/// resync, just a typed kCorruptReduction failure.
bool allreduce_sum_guarded(comm::Communicator& comm,
                           const IntegrityOptions& integrity,
                           std::span<double> values,
                           std::vector<int>* bad = nullptr);

/// Verdict of one ABFT operator audit, from the ALREADY-REDUCED global
/// sums: true when |(sum(b) - sum(r)) - dot(c, x)| exceeds
/// abft_tolerance * (sqrt(N_ocean * ||b||²) + |dot(c, x)|). The
/// sqrt(N·||b||²) term is the Cauchy-Schwarz bound on a masked sum, so
/// the scale stays meaningful near convergence where dot(c, x) can be
/// small. Non-finite sums (a flipped exponent bit breeding NaN/Inf)
/// count as a mismatch.
bool abft_mismatch(const IntegrityOptions& integrity, double sum_b,
                   double sum_r, double dot_cx, double n_ocean,
                   double b_norm2);

/// Verdict of one true-residual audit, from the already-reduced
/// relative residuals: true when |rel_true - rel_recurrence| exceeds
/// drift_tolerance * (1 + rel_recurrence). Non-finite gaps count as a
/// mismatch.
bool drift_mismatch(const IntegrityOptions& integrity, double rel_true,
                    double rel_recurrence);

/// Per-solve audit driver of the batched cores: owns the audit cadence
/// (every abft_interval / true_residual_interval convergence checks,
/// plus the accepting check for the drift audit) and leaves the solve
/// state untouched — audits only read b/r/x (the true-residual sweep
/// refreshes x's halo, which no core's subsequent arithmetic reads).
/// One ABFT sweep and/or one true-residual sweep covers every lane of
/// the batch, verdicts applied per member (DESIGN.md §12).
/// Constructed once per solve; at_check() is collective.
class BatchIntegrityAuditor {
 public:
  explicit BatchIntegrityAuditor(const SolverOptions& options)
      : integrity_(options.integrity) {}

  /// Run whatever audits are due at this convergence check, writing a
  /// verdict (kNone, kCorruptOperator, kSilentDrift, or
  /// kCorruptReduction when an audit's own guarded reduction
  /// mismatches) into fail[m] for each of the b.nb() members. Member
  /// bookkeeping arrives as raw arrays indexed by member: `b_norm2[m]`;
  /// `active[m]` skips frozen lanes; `r_norm2[m]` is the member's
  /// reduced recurrence norm (ignored when r_is_true). The drift audit
  /// SWEEPS when any member is accepting or the cadence is due, but its
  /// verdict only applies to members that are themselves accepting or
  /// cadence-due. Collective.
  void at_check(comm::Communicator& comm, const comm::HaloExchanger& halo,
                const DistOperator& a, const comm::DistFieldBatch& b,
                const comm::DistFieldBatch& r, comm::DistFieldBatch& x,
                const double* b_norm2, const unsigned char* active,
                const double* r_norm2, bool r_is_true,
                const unsigned char* accept, bool any_accept,
                FailureKind* fail);

 private:
  const IntegrityOptions& integrity_;
  int checks_ = 0;
  std::vector<double> abft_sums_;  // 3*nb + 1 (piggybacked N_ocean)
  std::vector<double> true_sums_;  // nb
};

}  // namespace minipop::solver
