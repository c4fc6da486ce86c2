// Depth-k ghost-zone (communication-avoiding) sweep engine.
//
// The classic barotropic solvers exchange a 1..2-wide halo before EVERY
// stencil sweep, so each P-CSI iteration pays one message latency per
// neighbor. At scale that latency — not bandwidth — dominates the solve
// (paper §5.3). The communication-avoiding alternative exchanges a
// DEPTH-k ghost region once, then runs k successive sweeps on shrinking
// extended domains: sweep j covers the interior plus a rim of width
// k - j, reading operands one cell wider, so after k sweeps the interior
// is exactly as if k separate exchange+sweep rounds had run — at 1/k the
// exchange rounds, paid for with redundant perimeter flops
// (~ 2*s*k + k^2 extra points per sweep on an s x s block).
//
// BITWISE CONTRACT. The redundant ghost computation executes the
// IDENTICAL floating-point operations on IDENTICAL data as the owning
// rank's interior computation:
//   * extended coefficient/mask/inverse-diagonal planes are gathered
//     from the SAME global stencil planes the per-block copies came
//     from (periodic-x wrap, zeros outside the domain), so a ghost
//     cell's coefficients equal the owner's interior coefficients bit
//     for bit, and the inverse diagonal repeats the preconditioner's
//     exact expression (mask ? 1.0/diag : 0.0; fp32 mirrors demote the
//     double values exactly like the baseline mirrors);
//   * the sweeps reuse the UNCHANGED kernels (residual9, lincomb_axpy,
//     diag_apply, masked_copy) on offset pointers — per-element
//     expression order is position-independent, so a ghost point's
//     result equals the owner's result bit for bit;
//   * outside the global domain coefficients and mask are identically
//     zero and the exchange zero-fills the rims, so out-of-domain ghost
//     arithmetic only ever adds +/-0 and cannot perturb any sum.
// Hence k grouped sweeps leave every interior cell BITWISE EQUAL to k
// single-exchange sweeps — pinned by tests across serial/multi-rank,
// scalar/batched, fp64/fp32.
//
// Cost accounting: every entry point adds its executed flops (extended
// points included) to CostCounters::flops and the (extended - interior)
// share to CostCounters::redundant_flops, so the comm-avoid overhead is
// exactly auditable.
#pragma once

#include <array>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/util/array2d.hpp"

namespace minipop::solver {

/// Preconditioner fused into the extended sweeps. Only the pointwise
/// preconditioners extend into ghost zones (their output at a ghost
/// cell depends only on that cell); block-EVP sweeps couple a whole
/// block and fall back to depth 1 in the factory, loudly.
enum class CaPrecond { kIdentity, kDiagonal };

class CommAvoidEngine {
 public:
  /// Build extended per-block planes at ghost width `width` (>= 1) for
  /// all blocks the operator's rank owns. The operator (and the stencil
  /// it was built from) must outlive the engine.
  CommAvoidEngine(const DistOperator& op, int width);

  int width() const { return width_; }

  /// z = M^-1 r on the extended region of every block: interior plus a
  /// rim of width e (0 <= e <= width). Reads r at extension e, writes z
  /// at extension e. Flop convention matches the baseline
  /// preconditioners: diagonal 1/pt/member, identity 0.
  template <typename T>
  void precond_batch(comm::Communicator& comm, CaPrecond kind,
                     const comm::DistFieldBatchT<T>& r,
                     comm::DistFieldBatchT<T>& z, int e) const;

  /// Fused P-CSI update pair on extension e with per-member
  /// coefficients (dx_m = a[m]*z_m + b[m]*dx_m; x_m += c[m]*dx_m — the
  /// baseline's lincomb_axpy, same kernel, same bits); members with
  /// active[m] == 0 stay frozen. 4 flops/pt counted for the n_act active
  /// lanes only — the batched solvers' convention.
  template <typename T>
  void update_batch(comm::Communicator& comm, const T* a,
                    const comm::DistFieldBatchT<T>& z, const T* b,
                    comm::DistFieldBatchT<T>& dx, const T* c,
                    comm::DistFieldBatchT<T>& x,
                    const unsigned char* active, int n_act, int e) const;

  /// r = b - A x on extension e, reading x one cell wider (extension
  /// e + 1 must not exceed the fields' halo). 10 flops/pt/member.
  template <typename T>
  void residual_batch(comm::Communicator& comm,
                      const comm::DistFieldBatchT<T>& b,
                      const comm::DistFieldBatchT<T>& x,
                      comm::DistFieldBatchT<T>& r, int e) const;

 private:
  /// Extended planes of one local block, padded to `width_` on every
  /// side: logical shape (nx + 2*width_) x (ny + 2*width_), ghost cells
  /// carrying the NEIGHBOR's true coefficients (zero outside the
  /// domain).
  struct BlockPlanes {
    std::array<util::Field, grid::kNumDirs> coeff;
    util::Field inv_diag;
  };
  struct BlockPlanes32 {
    std::array<util::Array2D<float>, grid::kNumDirs> coeff;
    util::Array2D<float> inv_diag;
  };

  /// fp32 mirror of the extended planes, demoted value-by-value from
  /// the double planes on first fp32 sweep (same rule as the operator's
  /// and preconditioner's mirrors). mutable + lazy is safe: each rank
  /// owns its engine.
  void ensure_planes32() const;

  /// Record an extended sweep's flops: `per_point` flops on the
  /// (nx+2e) x (ny+2e) extension of every local block, `nb` members;
  /// the share beyond the interior also lands in redundant_flops.
  void count(comm::Communicator& comm, int e, int nb,
             std::uint64_t per_point) const;

  const DistOperator* op_;
  const grid::Decomposition* decomp_;
  int width_;
  std::vector<BlockPlanes> planes_;
  mutable std::vector<BlockPlanes32> planes32_;

  /// Land-span plans of every extended sweep region (DESIGN.md §14):
  /// ext_spans_[lb][e] covers the (nx+2e) x (ny+2e) extension-e window
  /// of local block lb's padded mask plane, e in [0, width_], so the
  /// depth-k ghost sweeps skip land exactly like the baseline sweeps do.
  std::vector<std::vector<BlockSpans>> ext_spans_;
  /// Ocean census of the extension-e regions summed over local blocks,
  /// indexed by e — the `active` half of count()'s add_points.
  std::vector<std::uint64_t> ext_active_;
};

#define MINIPOP_COMM_AVOID_EXTERN(T)                                       \
  extern template void CommAvoidEngine::precond_batch<T>(                  \
      comm::Communicator&, CaPrecond, const comm::DistFieldBatchT<T>&,     \
      comm::DistFieldBatchT<T>&, int) const;                               \
  extern template void CommAvoidEngine::update_batch<T>(                   \
      comm::Communicator&, const T*, const comm::DistFieldBatchT<T>&,      \
      const T*, comm::DistFieldBatchT<T>&, const T*,                       \
      comm::DistFieldBatchT<T>&, const unsigned char*, int, int) const;    \
  extern template void CommAvoidEngine::residual_batch<T>(                 \
      comm::Communicator&, const comm::DistFieldBatchT<T>&,                \
      const comm::DistFieldBatchT<T>&, comm::DistFieldBatchT<T>&, int)     \
      const;
MINIPOP_COMM_AVOID_EXTERN(double)
MINIPOP_COMM_AVOID_EXTERN(float)
#undef MINIPOP_COMM_AVOID_EXTERN

}  // namespace minipop::solver
