// The masked kernel family — a REFERENCE, not a production path.
//
// These are the dense sweeps the solvers ran before land-span plans
// (DESIGN.md §14): stencil sweeps and vector updates over every interior
// cell, reductions and pointwise preconditioners that read the land mask
// per cell and select. Production code runs the span kernels of
// kernels.hpp only. This family is kept, loop bodies unchanged, as the
// independent oracle the span kernels are held to:
//   * the kernel- and operator-level identity tests;
//   * the MINIPOP_BOUNDS_CHECK audit, which re-runs every span sweep of
//     DistOperator through this family and compares bitwise;
//   * bench_spans, whose masked columns time this family as the
//     baseline the span kernels must beat.
// It builds as its own library (minipop_kernels_masked); the minipop
// library links it only when MINIPOP_BOUNDS_CHECK is on, so a release
// build fails to link if production code calls it.
//
// Layout, width and accumulation contracts are those of kernels.hpp,
// with the land mask (ms = mask row pitch) in place of the span plan:
// one entry point per operation, generic in nb, dispatching nb == 1 to
// the width-1 instantiation. Stencil sweeps and vector updates write
// every interior cell (land included); masked reductions add +0.0 at
// land; mask_zero / diag_apply / masked_copy write 0 at land exactly
// like their span counterparts. Instantiated for float and double.
#pragma once

#include <cstddef>

#include "src/solver/kernels.hpp"

namespace minipop::solver::kernels::masked {

/// y_m = A x_m over the whole nx*ny interior.
template <typename T>
void apply9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* x,
            std::ptrdiff_t xs, T* y, std::ptrdiff_t ys);

/// r_m = b_m - A x_m over the whole interior.
template <typename T>
void residual9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* b,
               std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs, T* r,
               std::ptrdiff_t rs);

/// r_m = b_m - A x_m everywhere and sums[m] += sum_{mask} r_m².
template <typename T>
void residual_norm2_9(const Stencil9T<T>& c, const unsigned char* mask,
                      std::ptrdiff_t ms, int nb, int nx, int ny, const T* b,
                      std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                      T* r, std::ptrdiff_t rs, double* sums);

/// sums[m] += sum_{mask} a_m * b_m.
template <typename T>
void dot(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const T* a, std::ptrdiff_t as, const T* b,
         std::ptrdiff_t bs, double* sums);

/// Fused ChronGear dots in the grouped [rho][delta][norm] layout of
/// kernels::dot3.
template <typename T>
void dot3(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
          int ny, const T* r, std::ptrdiff_t rs, const T* rp,
          std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs, bool with_norm,
          double* out);

/// sums[m] += sum_{mask} a_m.
template <typename T>
void sum(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const T* a, std::ptrdiff_t as, double* sums);

/// sums[m] += sum_{mask} c * a_m against one shared double plane.
template <typename T>
void dot_shared(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* c, std::ptrdiff_t cs,
                const T* a, std::ptrdiff_t as, double* sums);

/// y_m = a[m]*x_m + b[m]*y_m for each active m, every interior cell.
template <typename T>
void lincomb(int nb, int nx, int ny, const T* a, const T* x,
             std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
             const unsigned char* active);

/// y_m += a[m]*x_m for each active m, every interior cell.
template <typename T>
void axpy(int nb, int nx, int ny, const T* a, const T* x,
          std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
          const unsigned char* active);

/// y_m = a[m]*x_m + b[m]*y_m then z_m += c[m]*y_m, every interior cell.
template <typename T>
void lincomb_axpy(int nb, int nx, int ny, const T* a, const T* x,
                  std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
                  const T* c, T* z, std::ptrdiff_t zs,
                  const unsigned char* active);

/// x_m *= a[m] for each active m, every interior cell.
template <typename T>
void scale(int nb, int nx, int ny, const T* a, T* x, std::ptrdiff_t xs,
           const unsigned char* active);

/// x_m = 0 on land (mask == 0) cells.
template <typename T>
void mask_zero(const unsigned char* mask, std::ptrdiff_t ms, int nb,
               int nx, int ny, T* x, std::ptrdiff_t xs);

/// out_m = inv * in_m everywhere (inv is 0 on land).
template <typename T>
void diag_apply(const T* inv, std::ptrdiff_t is, int nb, int nx, int ny,
                const T* in, std::ptrdiff_t ins, T* out,
                std::ptrdiff_t outs);

/// out_m = mask ? in_m : 0.
template <typename T>
void masked_copy(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                 int nx, int ny, const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs);

}  // namespace minipop::solver::kernels::masked
