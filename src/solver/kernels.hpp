// Hot-path kernels of the barotropic solvers.
//
// Both ChronGear (Alg. 1) and P-CSI (Alg. 2) spend their rank-local time
// in the same few sweeps: the nine-point matvec, the residual update, the
// masked inner products and the vector updates. These are memory-bound
// stencil/streaming loops, so the kernels here are written to (a) touch
// each field exactly once per logical operation — fused residual, fused
// residual+norm², fused triple dot, fused lincomb+axpy — (b) present the
// compiler with raw, restrict-qualified row pointers so the inner loops
// vectorize without runtime alias checks or per-element index
// arithmetic, and (c) visit only ocean cells: every sweep runs over a
// per-row list of contiguous ocean runs (a land-span plan, DESIGN.md
// §14) instead of loading and testing the land mask per cell.
//
// ONE KERNEL FAMILY. There is one fp64 entry point per operation,
// generic in the member width `nb`, the batch width. Each kernel
// dispatches nb == 1 to a width-1 instantiation whose member loop
// collapses to the scalar loop (a DistField is the width-1 batch), and
// every other width to the dynamic-width instantiation.
//
// Batched fields are member-fastest interleaved SoA planes: member m of
// interior cell (i, j) lives at base[j*stride + i*nb + m]; nb = 1
// degenerates to the scalar row-major layout. Stencil coefficients and
// the land mask are shared across members and loaded ONCE per cell, then
// reused across the member loop — coefficient bytes are read once per
// point instead of once per point per member, which is the batching
// bandwidth win.
//
// Contracts shared by every kernel:
//   * All pointers address the FIRST INTERIOR element of a block-local
//     row-major array; `*_stride` is the padded row pitch in elements
//     (already widened by nb for batched planes). A padded field's
//     interior pointer is `base + h*pitch + h*nb`.
//   * Spans for row j are spans[row_offset[j] .. row_offset[j+1]); every
//     listed cell is ocean, every gap is land (solver::BlockSpans in
//     span_plan.hpp builds them from the land mask).
//   * Distinct array arguments must not alias (they are restrict-
//     qualified); rows of one padded array never overlap because the
//     pitch exceeds the interior width.
//   * Per-cell expression order and the row-major reduction order over
//     ocean cells are IDENTICAL to the naive masked scalar loops, so
//     results are deterministic across runs and member m of any batched
//     result equals the width-1 kernel run on member m's plane exactly.
//     The masked reference family (kernels_masked.hpp) computes the
//     same bits; tests and the MINIPOP_BOUNDS_CHECK audit hold the two
//     together.
//   * Reductions write/continue per-member accumulators in a caller
//     array (sums[m]); update kernels take per-member coefficients and
//     an optional `active` mask of nb bytes — members with
//     active[m] == 0 are not written (their planes stay frozen), which
//     implements per-member convergence masking in the batched solvers.
//     A null `active` means all members are active.
//   * No bounds checks: callers guarantee shapes.
//
// Semantics per kernel class (DESIGN.md §14 has the full argument):
//   * Stencil sweeps and vector updates SKIP land cells: land values of
//     the output are left untouched. Under the solver invariant that
//     land cells of every iterate hold +0.0 (established by the
//     gap-zeroing kernels below, preserved because every coupling toward
//     land is exactly +0.0) the skipped writes would have deposited the
//     value already there — except that an update with a negative
//     coefficient could write -0.0 at land where the skip keeps +0.0,
//     a sign no ocean cell or masked reduction can see.
//   * Reductions iterate ocean cells only; a masked loop adds +0.0 per
//     land cell, which never changes an IEEE accumulator.
//   * Gap-zeroing kernels (mask_zero, diag_apply, masked_copy) write 0 in
//     the gaps, so they establish the land-zero invariant the skipping
//     kernels rely on.
#pragma once

#include <cstddef>

#if defined(_MSC_VER)
#define MINIPOP_RESTRICT __restrict
#else
#define MINIPOP_RESTRICT __restrict__
#endif

namespace minipop::solver::kernels {

/// Base pointers of one block's nine coefficient arrays (unpadded,
/// bnx-pitch, row-major — the layout DistOperator stores). Order follows
/// grid::Dir. `stride` is the coefficient row pitch (= block nx).
struct Stencil9 {
  const double* c0;   ///< center
  const double* ce;   ///< east
  const double* cw;   ///< west
  const double* cn;   ///< north
  const double* cs;   ///< south
  const double* cne;  ///< north-east
  const double* cnw;  ///< north-west
  const double* cse;  ///< south-east
  const double* csw;  ///< south-west
  std::ptrdiff_t stride;
};

/// One run of contiguous ocean cells inside a block row: interior cells
/// [i0, i0 + len).
struct Span {
  int i0 = 0;
  int len = 0;
};

// ---------------------------------------------------------------------
// Span sweeps.
// ---------------------------------------------------------------------

/// y_m = A x_m at ocean cells. x must have valid halo rows/columns
/// around the interior. 9 flops/point/member by the paper's counting
/// convention.
void apply9(const Stencil9& c, const int* row_offset, const Span* spans,
            int nb, int ny, const double* x, std::ptrdiff_t xs, double* y,
            std::ptrdiff_t ys);

/// Fused residual r_m = b_m - A x_m in ONE sweep. 10 flops/point/member.
void residual9(const Stencil9& c, const int* row_offset,
               const Span* spans, int nb, int ny, const double* b,
               std::ptrdiff_t bs, const double* x, std::ptrdiff_t xs, double* r,
               std::ptrdiff_t rs);

/// Fused residual + norm²: r_m = b_m - A x_m and sums[m] += sum r_m², all
/// in ONE sweep — the solvers' convergence check at zero extra field
/// passes. Accumulation CONTINUES from the caller's sums[] (one running
/// accumulator per member across a rank's blocks), so the result equals
/// residual9 followed by dot over the same cells bit for bit.
void residual_norm2_9(const Stencil9& c, const int* row_offset,
                      const Span* spans, int nb, int ny, const double* b,
                      std::ptrdiff_t bs, const double* x, std::ptrdiff_t xs,
                      double* r, std::ptrdiff_t rs, double* sums);

/// sums[m] += sum a_m * b_m, row-major, continuing from sums[] — callers
/// thread one running accumulator through all local blocks (starting
/// each block at zero and adding partials would perturb the last bits).
void dot(const int* row_offset, const Span* spans, int nb, int ny,
         const double* a, std::ptrdiff_t as, const double* b, std::ptrdiff_t bs,
         double* sums);

/// Fused ChronGear dots, grouped for ONE vector allreduce:
///   out[m]        += <r_m, rp_m>   (rho)
///   out[nb + m]   += <z_m, rp_m>   (delta)
///   out[2nb + m]  += <r_m, r_m>    (norm, only if with_norm)
/// Each accumulator's add order matches the equivalent dot call.
void dot3(const int* row_offset, const Span* spans, int nb, int ny,
          const double* r, std::ptrdiff_t rs, const double* rp,
          std::ptrdiff_t ps, const double* z, std::ptrdiff_t zs, bool with_norm,
          double* out);

/// sums[m] += sum a_m (the integrity layer's ABFT checksum sweep).
void sum(const int* row_offset, const Span* spans, int nb, int ny,
         const double* a, std::ptrdiff_t as, double* sums);

/// sums[m] += sum c * a_m against ONE shared double plane with its own
/// pitch (the ABFT audit pairs the operator's unpadded column-sum field
/// with a padded solver field).
void dot_shared(const int* row_offset, const Span* spans, int nb, int ny,
                const double* c, std::ptrdiff_t cs, const double* a,
                std::ptrdiff_t as, double* sums);

/// y_m = a[m]*x_m + b[m]*y_m for each active m. Covers the solvers'
/// axpy (b = 1), xpby (a = 1), and the general P-CSI update.
void lincomb(const int* row_offset, const Span* spans, int nb, int ny,
             const double* a, const double* x, std::ptrdiff_t xs,
             const double* b, double* y, std::ptrdiff_t ys,
             const unsigned char* active);

/// y_m += a[m]*x_m for each active m.
void axpy(const int* row_offset, const Span* spans, int nb, int ny,
          const double* a, const double* x, std::ptrdiff_t xs, double* y,
          std::ptrdiff_t ys, const unsigned char* active);

/// Fused update pair (P-CSI steps 7-8; ChronGear steps 13-16 as two
/// calls): y_m = a[m]*x_m + b[m]*y_m then z_m += c[m]*y_m, in ONE sweep.
void lincomb_axpy(const int* row_offset, const Span* spans, int nb, int ny,
                  const double* a, const double* x, std::ptrdiff_t xs,
                  const double* b, double* y, std::ptrdiff_t ys,
                  const double* c, double* z, std::ptrdiff_t zs,
                  const unsigned char* active);

/// x_m *= a[m] for each active m.
void scale(const int* row_offset, const Span* spans, int nb, int ny,
           const double* a, double* x, std::ptrdiff_t xs,
           const unsigned char* active);

// Gap-zeroing kernels need the row width `nx` to zero the trailing gap.

/// x_m = 0 on land cells; ocean cells are not rewritten.
void mask_zero(const int* row_offset, const Span* spans, int nb, int nx,
               int ny, double* x, std::ptrdiff_t xs);

/// out_m = inv * in_m at ocean, 0 on land (diagonal preconditioner,
/// shared inverse-diagonal plane).
void diag_apply(const double* inv, std::ptrdiff_t is, const int* row_offset,
                const Span* spans, int nb, int nx, int ny, const double* in,
                std::ptrdiff_t ins, double* out, std::ptrdiff_t outs);

/// out_m = in_m at ocean, 0 on land (identity preconditioner).
void masked_copy(const int* row_offset, const Span* spans, int nb, int nx,
                 int ny, const double* in, std::ptrdiff_t ins, double* out,
                 std::ptrdiff_t outs);

// ---------------------------------------------------------------------
// Mask-free whole-plane kernels.
// ---------------------------------------------------------------------

/// y = x, all members (row-wise memcpy over the widened rows).
void copy(int nb, int nx, int ny, const double* x, std::ptrdiff_t xs, double* y,
          std::ptrdiff_t ys);

/// x = v, all members.
void fill(int nb, int nx, int ny, double v, double* x, std::ptrdiff_t xs);

}  // namespace minipop::solver::kernels
