// Declarative description of the faults to inject into one run.
//
// A FaultPlan is a list of FaultRules, each naming an injection site and
// either a per-event probability or a scheduled trigger (fire exactly at
// the Nth event of that site on a rank). Event counters and random
// streams are kept per (site, rank), so a plan is deterministic for a
// given seed regardless of thread interleaving — the same plan replays
// the same faults. An empty plan is the runtime no-op; the compile-time
// gate is MINIPOP_FAULTS (see hooks in fault_injector.hpp).
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

namespace minipop::fault {

enum class FaultSite {
  kSolverVector,  ///< bit-flip / NaN in a solver vector after a stencil sweep
  kHaloPayload,   ///< bit-flip in a packed halo send buffer
  kMailbox,       ///< drop, delay or duplicate a ThreadComm mailbox message
  kRankStall,     ///< stall a rank for a wall-clock time at a collective post
  kEigenBounds,   ///< corrupt the P-CSI eigenvalue interval [nu, mu]
  kHaloBitFlip,   ///< bit-flip a halo payload AFTER its CRC was computed
  kCoeffBitFlip,  ///< bit-flip a stored 9-point stencil coefficient
  kReductionCorrupt,  ///< corrupt this rank's allreduce contribution
};

/// Names in enumerator order. The site count is DERIVED from this table
/// and the static_assert below pins the table to the last enumerator,
/// so adding a site without naming it (or naming one without adding it)
/// fails at compile time.
inline constexpr const char* kFaultSiteNames[] = {
    "solver_vector", "halo_payload",   "mailbox",
    "rank_stall",    "eigen_bounds",   "halo_bit_flip",
    "coeff_bit_flip", "reduction_corrupt",
};
inline constexpr int kNumFaultSites =
    static_cast<int>(std::size(kFaultSiteNames));
static_assert(static_cast<int>(FaultSite::kReductionCorrupt) + 1 ==
                  kNumFaultSites,
              "FaultSite enumerators and kFaultSiteNames are out of sync; "
              "add the new site's name in enumerator order");

constexpr const char* to_string(FaultSite s) {
  return kFaultSiteNames[static_cast<int>(s)];
}

/// What a fired kMailbox fault does to the message.
enum class MailboxAction { kDrop, kDelay, kDuplicate };

struct FaultRule {
  FaultSite site = FaultSite::kSolverVector;

  /// Restrict the rule to one rank; -1 matches every rank.
  int rank = -1;

  /// Per-event firing probability, used when trigger_event < 0.
  double probability = 0.0;

  /// Fire exactly at this per-(site, rank) event ordinal (0-based);
  /// overrides probability when >= 0. Event ordinals count hook calls:
  /// stencil sweeps for kSolverVector, packed sends for kHaloPayload,
  /// posted messages for kMailbox, collective posts for kRankStall,
  /// solver-entry reads of the bounds for kEigenBounds, CRC-protected
  /// sends for kHaloBitFlip, operator sweeps for kCoeffBitFlip,
  /// and reduction contributions for kReductionCorrupt.
  long trigger_event = -1;

  /// Stop firing after this many hits (<= 0 means unlimited).
  int max_fires = 1;

  // --- action parameters ---
  /// Bit to flip for the bit-flip sites (0 = lsb of the mantissa,
  /// 62 = top exponent bit; 51 flips the mantissa msb, a large silent
  /// value error that stays finite).
  int bit = 51;
  /// kSolverVector: overwrite with a quiet NaN instead of flipping a bit.
  bool make_nan = false;
  /// kSolverVector: corrupt this many distinct entries per fire.
  int entries = 1;
  MailboxAction mailbox = MailboxAction::kDrop;
  /// kMailbox kDelay: deliver this late; kRankStall: stall duration.
  double delay_ms = 0.0;
  /// kEigenBounds: nu *= nu_scale, mu *= mu_scale (a scale pair like
  /// {1, 100} mimics a badly overestimated spectrum, {-1, 1} breaks the
  /// Chebyshev contraction outright).
  double nu_scale = 1.0;
  double mu_scale = 1.0;
};

struct FaultPlan {
  std::uint64_t seed = 12345;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  FaultPlan& add(const FaultRule& r) {
    rules.push_back(r);
    return *this;
  }
};

}  // namespace minipop::fault
