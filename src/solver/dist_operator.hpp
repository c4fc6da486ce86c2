// Rank-local (distributed) view of the nine-point barotropic operator.
//
// Holds per-block copies of the stencil coefficients and land mask for
// the blocks this rank owns, and applies the operator matrix-free. The
// halo of the input vector is refreshed immediately before the stencil
// sweep, so each matvec costs exactly one boundary update — the same
// per-iteration communication the paper's Algorithms 1 and 2 have. (The
// paper places the update after the matvec on the *result*; placing it on
// the *input* is communication-equivalent and stays correct for block
// preconditioners, whose output cannot be extended into the halo
// locally.)
//
// Grown regions (DESIGN.md §13). An operator built with rim > 0 pads
// every block's coefficient planes by `rim` cells holding the
// neighbours' true coefficients (periodic wrap in x, zeros outside the
// domain), and keeps one land-span plan per region grown by e in
// [0, rim]. A residual sweep on the region grown by e then repeats, on
// a ghost cell, the owning rank's own arithmetic on the same operands,
// so it lands on the same bits: P-CSI's depth-k schedule runs k sweeps
// after one deep exchange on rim k - 1. rim = 0 is the plain layout.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/halo.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/kernels.hpp"
#include "src/solver/span_plan.hpp"

namespace minipop::solver {

class DistOperator {
 public:
  /// `rim` (0, or below decomp.max_halo_width()) pads the coefficient
  /// planes for sweeps on regions grown by up to `rim` cells.
  DistOperator(const grid::NinePointStencil& stencil,
               const grid::Decomposition& decomp, int rank, int rim = 0);

  const grid::Decomposition& decomposition() const { return *decomp_; }
  int rank() const { return rank_; }
  /// Width of the coefficient planes' ghost rim.
  int rim() const { return rim_; }
  int num_local_blocks() const {
    return static_cast<int>(block_coeff_.size());
  }
  long local_ocean_cells() const { return local_ocean_cells_; }
  double phi() const { return phi_; }

  /// Land-span plan of the block interiors grown by e cells (0 <= e <=
  /// rim()), indexed by local block (DESIGN.md §14): every sweep of the
  /// operator, the preconditioners, the field ops and the batched cores
  /// runs over one. Plan e covers the (nx+2e) x (ny+2e) region whose
  /// corner is DistFieldBatch::corner(lb, e); ghost-rim land is skipped
  /// exactly like interior land.
  const SpanPlan& span_plan(int e = 0) const { return span_plans_[e]; }

  /// Record one sweep over the interiors grown by e for `members`
  /// members: `per_point` flops per swept cell and member, and the
  /// ocean/swept census. The cells beyond the interiors are also
  /// charged to redundant_flops, so the cost of the grown sweeps stays
  /// auditable.
  void count(comm::Communicator& comm, std::uint64_t per_point, int members,
             int e = 0) const;

  // -------------------------------------------------------------------
  // ABFT operator checksums (DESIGN.md §12). The column-sum field
  // c = A·1 (per block, one pointwise sum of the nine coefficient
  // planes — equal to the column sums because the barotropic operator
  // is symmetric, and local == global because coefficients are
  // identically zero across coastlines and rank boundaries carry the
  // same values both ways) is built once at construction and after
  // every repair. A solve can then audit the identity
  //   sum(A x) == dot(c, x)   i.e.   sum(b) - sum(r) == dot(c, x)
  // over all ocean cells for ~one masked dot, catching silent
  // corruption of the coefficient planes: the sweeps use the (possibly
  // corrupted) coefficients while c keeps the construction-time truth.

  /// Local (this rank's) terms of the ABFT identity for every member,
  /// grouped for one vector allreduce: out[0..nb) = masked sum(b_m),
  /// out[nb..2nb) = masked sum(r_m), out[2nb..3nb) = masked dot(c, x_m);
  /// out[0..3nb) OVERWRITTEN. The identity only holds after BOTH sides
  /// are reduced across ranks — boundary-crossing stencil legs are
  /// counted on the row side by the owner of the row and on the column
  /// side by the owner of the column.
  void abft_local_sums_batch(comm::Communicator& comm,
                             const comm::DistFieldBatch& b,
                             const comm::DistFieldBatch& r,
                             const comm::DistFieldBatch& x,
                             double* out) const;

  /// Column-sum (checksum) field of local block lb, for tests.
  const util::Field& block_column_sum(int lb) const {
    return column_sum_[lb];
  }

  /// Restore the coefficient planes, rims included, from the
  /// construction-time stencil (which recovery trusts: it lives in the
  /// model's read-only setup, not in solver working state) and rebuild
  /// the column sums. Recovery calls this on a kCorruptOperator verdict
  /// before restarting from a checkpoint; a no-op on healthy
  /// coefficients (same values copied).
  void repair_coefficients() const;

  // -------------------------------------------------------------------
  // Sweeps over an nb-member interleaved batch; a DistField is the
  // width-1 batch. ONE aggregated halo exchange and one coefficient pass
  // serve all members, flop counts scale by nb, and member m of every
  // result is bit-identical to the width-1 sweep on member m's plane
  // (kernels.hpp contract). Each sweep refreshes x's halo first (one
  // boundary update) unless the caller attests kFresh, so callers never
  // manage halos themselves. Reductions fill per-member arrays the
  // caller combines in ONE vector allreduce. The solver-vector fault
  // hooks arm on width-1 solves only. A member of a wider batch that
  // diverges recovers through the per-member sub-batch path of the
  // resilient decorator (DESIGN.md §11). Coefficient fault sites arm on
  // every sweep (shared planes).

  /// y = A x, all members. sums-free; 9*nb flops/point.
  void apply_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      comm::DistFieldBatch& x, comm::DistFieldBatch& y,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;

  /// r = b - A x, all members, on the interiors grown by `ext` (0 <=
  /// ext <= rim()): reads b on that region and x one cell wider, so
  /// b.halo() >= ext and x.halo() > ext.
  void residual_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::DistFieldBatch& r,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale,
      int ext = 0) const;

  /// Fused r = b - A x AND local masked ||r_m||² for every member:
  /// sums[0..nb) is OVERWRITTEN with the local sums.
  void residual_local_norm2_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
      comm::DistFieldBatch& r, double* sums,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;

  /// Local masked per-member dots: sums[0..nb) is OVERWRITTEN.
  void local_dot_batch(comm::Communicator& comm,
                       const comm::DistFieldBatch& a,
                       const comm::DistFieldBatch& b, double* sums) const;

  /// Fused per-member ChronGear dots, grouped for one vector allreduce:
  /// out[0..nb) = <r, rp>, out[nb..2nb) = <z, rp>, out[2nb..3nb) =
  /// <r, r> (zeros unless with_norm). out[0..3nb) is OVERWRITTEN.
  void local_dot3_batch(comm::Communicator& comm,
                        const comm::DistFieldBatch& r,
                        const comm::DistFieldBatch& rp,
                        const comm::DistFieldBatch& z, bool with_norm,
                        double* out) const;

  /// Zero out land cells of all members' interiors.
  void mask_interior_batch(comm::DistFieldBatch& x) const;

  // Single-field forms of two sweeps, kept for callers that check one
  // field (the end-to-end benchmark's residual check): residual_batch
  // and local_dot_batch at width 1.

  /// r = b - A x.
  void residual(comm::Communicator& comm, const comm::HaloExchanger& halo,
                const comm::DistField& b, comm::DistField& x,
                comm::DistField& r,
                comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;

  /// Local (this rank's) masked inner product over block interiors;
  /// combine across ranks with an allreduce.
  double local_dot(comm::Communicator& comm, const comm::DistField& a,
                   const comm::DistField& b) const;

  /// Operator diagonal of local block lb, padded like block_coeff.
  const util::Field& block_diagonal(int lb) const {
    return block_coeff_[lb][static_cast<int>(grid::Dir::kCenter)];
  }
  /// Coefficient plane of direction d for local block lb, padded by
  /// rim(): interior cell (i, j) is element (i + rim(), j + rim()).
  const util::Field& block_coeff(int lb, grid::Dir d) const {
    return block_coeff_[lb][static_cast<int>(d)];
  }
  /// Land mask of local block lb (interior coordinates, no rim).
  const util::MaskArray& block_mask(int lb) const { return block_mask_[lb]; }

 private:
  /// Stencil view of local block lb's coefficient planes at the corner
  /// of its interior grown by e.
  kernels::Stencil9 stencil_at(int lb, int e) const;

  /// Fault-injection point: offer the coefficient planes, rims
  /// included, to the installed FaultInjector (kCoeffBitFlip) at the
  /// entry of every sweep, at every batch width, since all read the
  /// same planes. The corrupted sweep output rides into the iterates;
  /// the ABFT audit must catch it. Compiles to nothing when
  /// MINIPOP_FAULTS is off.
  void offer_coeff_fault_sites() const;

  /// Rebuild column_sum_ from the current block_coeff_ (construction
  /// and repair).
  void build_column_sums() const;

  /// Copy the padded coefficient planes out of the stencil
  /// (construction and repair).
  void gather_coefficients() const;

  /// span_plans_[e]: the plan of the interiors grown by e.
  std::vector<SpanPlan> span_plans_;
  /// Cells and ocean cells of the grown regions, summed over local
  /// blocks and indexed by e (count()'s census).
  std::vector<std::uint64_t> cells_, ocean_cells_;

  const grid::Decomposition* decomp_;
  /// Kept for repair_coefficients(): the model's stencil outlives the
  /// operator (same ownership as decomp_).
  const grid::NinePointStencil* stencil_;
  int rank_;
  int rim_;
  double phi_;
  long local_ocean_cells_ = 0;
  /// Nine coefficient planes per block, (nx + 2 rim) x (ny + 2 rim).
  /// mutable: repair_coefficients() restores the planes through the
  /// const reference the solvers hold; each rank owns its DistOperator,
  /// so no two threads share one.
  mutable std::vector<std::array<util::Field, grid::kNumDirs>> block_coeff_;
  std::vector<util::MaskArray> block_mask_;
  /// ABFT column sums c = A·1 per block (see abft_local_sums_batch);
  /// rebuilt by repair_coefficients().
  mutable std::vector<util::Field> column_sum_;
};

}  // namespace minipop::solver
