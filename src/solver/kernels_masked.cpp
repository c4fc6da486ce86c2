// The masked kernel family: the dense sweeps that read the land mask
// per cell, kept as the reference the span kernels are checked against
// (see kernels_masked.hpp). Loop bodies are the pre-span production
// kernels, unchanged; the per-row helpers both families use live in
// kernel_rows.hpp.
//
// Masked reductions use a select (`mask ? term : 0.0`) instead of a
// branch: adding +0.0 cannot change the accumulator, so the select is
// bitwise equivalent to the branchy form while staying if-convertible.
#include "src/solver/kernels_masked.hpp"

#include "src/solver/kernel_rows.hpp"

namespace minipop::solver::kernels::masked {

namespace {

using detail::eff_width;
using detail::row_apply9;
using detail::row_axpy;
using detail::row_diag_apply;
using detail::row_lincomb;
using detail::row_lincomb_axpy;
using detail::row_residual9;
using detail::row_scale;

template <int B>
inline void row_residual_norm2(const double* MINIPOP_RESTRICT c0,
                               const double* MINIPOP_RESTRICT ce,
                               const double* MINIPOP_RESTRICT cw,
                               const double* MINIPOP_RESTRICT cn,
                               const double* MINIPOP_RESTRICT cs,
                               const double* MINIPOP_RESTRICT cne,
                               const double* MINIPOP_RESTRICT cnw,
                               const double* MINIPOP_RESTRICT cse,
                               const double* MINIPOP_RESTRICT csw,
                               const unsigned char* MINIPOP_RESTRICT m,
                               const double* MINIPOP_RESTRICT b,
                               const double* MINIPOP_RESTRICT xm,
                               const double* MINIPOP_RESTRICT x0,
                               const double* MINIPOP_RESTRICT xp,
                               double* MINIPOP_RESTRICT r,
                               double* MINIPOP_RESTRICT sums, int nx,
                               int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) {
      const double rv = b[i] - MINIPOP_POINT9(i);
      r[i] = rv;
      sum += m[i] ? rv * rv : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      const unsigned char sel = m[i];
      for (int mm = 0; mm < w; ++mm) {
        const double rv = b[ib + mm] - MINIPOP_POINT9B(ib, mm, w);
        r[ib + mm] = rv;
        sums[mm] += sel ? rv * rv : 0.0;
      }
    }
  }
}

template <int B>
inline void row_dot(const unsigned char* MINIPOP_RESTRICT m,
                    const double* MINIPOP_RESTRICT a,
                    const double* MINIPOP_RESTRICT b,
                    double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) sum += m[i] ? a[i] * b[i] : 0.0;
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      const unsigned char sel = m[i];
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += sel ? a[ib + mm] * b[ib + mm] : 0.0;
    }
  }
}

template <int B>
inline void row_dot3(const unsigned char* MINIPOP_RESTRICT mr,
                     const double* MINIPOP_RESTRICT rr,
                     const double* MINIPOP_RESTRICT pr,
                     const double* MINIPOP_RESTRICT zr, bool with_norm,
                     double* MINIPOP_RESTRICT s0,
                     double* MINIPOP_RESTRICT s1,
                     double* MINIPOP_RESTRICT s2, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) {
      s0[m] += sel ? rr[ib + m] * pr[ib + m] : 0.0;
      s1[m] += sel ? zr[ib + m] * pr[ib + m] : 0.0;
      if (with_norm)
        s2[m] += sel ? rr[ib + m] * rr[ib + m] : 0.0;
    }
  }
}

template <int B>
inline void row_mask_zero(const unsigned char* MINIPOP_RESTRICT mr,
                          double* MINIPOP_RESTRICT x, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) x[ib + m] = sel ? x[ib + m] : 0.0;
  }
}

template <int B>
inline void row_masked_copy(const unsigned char* MINIPOP_RESTRICT mr,
                            const double* MINIPOP_RESTRICT ir,
                            double* MINIPOP_RESTRICT orr, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) orr[ib + m] = sel ? ir[ib + m] : 0.0;
  }
}

// Block drivers: hoist row pointers, delegate to the restrict-parameter
// row helpers.
namespace core {

template <int B>
void apply9(const Stencil9& c, int nb, int nx, int ny, const double* x,
            std::ptrdiff_t xs, double* y, std::ptrdiff_t ys) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const double* x0 = x + j * xs;
    row_apply9<B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj, c.cs + cj,
                  c.cne + cj, c.cnw + cj, c.cse + cj, c.csw + cj, x0 - xs, x0,
                  x0 + xs, y + j * ys, nx, nb);
  }
}

template <int B>
void residual9(const Stencil9& c, int nb, int nx, int ny, const double* b,
               std::ptrdiff_t bs, const double* x, std::ptrdiff_t xs, double* r,
               std::ptrdiff_t rs) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const double* x0 = x + j * xs;
    row_residual9<B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj, c.cs + cj,
                     c.cne + cj, c.cnw + cj, c.cse + cj, c.csw + cj, b + j * bs,
                     x0 - xs, x0, x0 + xs, r + j * rs, nx, nb);
  }
}

template <int B>
void residual_norm2_9(const Stencil9& c, const unsigned char* mask,
                      std::ptrdiff_t ms, int nb, int nx, int ny,
                      const double* b, std::ptrdiff_t bs, const double* x,
                      std::ptrdiff_t xs, double* r, std::ptrdiff_t rs,
                      double* sums) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const double* x0 = x + j * xs;
    row_residual_norm2<B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj, c.cs + cj,
                          c.cne + cj, c.cnw + cj, c.cse + cj, c.csw + cj,
                          mask + j * ms, b + j * bs, x0 - xs, x0, x0 + xs,
                          r + j * rs, sums, nx, nb);
  }
}

template <int B>
void dot(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const double* a, std::ptrdiff_t as, const double* b,
         std::ptrdiff_t bs, double* sums) {
  for (int j = 0; j < ny; ++j)
    row_dot<B>(mask + j * ms, a + j * as, b + j * bs, sums, nx, nb);
}

template <int B>
void dot3(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
          int ny, const double* r, std::ptrdiff_t rs, const double* rp,
          std::ptrdiff_t ps, const double* z, std::ptrdiff_t zs, bool with_norm,
          double* out) {
  // Grouped accumulators [rho x w][delta x w][norm x w]; per-member add
  // order equals separate dot calls, so the fusion is bitwise-neutral.
  if constexpr (B == 1) {
    // Width-1 fast path: all three accumulators live in registers
    // across the whole block and the with_norm branch is hoisted out of
    // the sweep (adds to s2 happen only when with_norm, so both forms
    // produce the same bits).
    double s0 = out[0], s1 = out[1], s2 = out[2];
    if (with_norm) {
      for (int j = 0; j < ny; ++j) {
        const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
        const double* MINIPOP_RESTRICT rr = r + j * rs;
        const double* MINIPOP_RESTRICT pr = rp + j * ps;
        const double* MINIPOP_RESTRICT zr = z + j * zs;
        for (int i = 0; i < nx; ++i) {
          s0 += mr[i] ? rr[i] * pr[i] : 0.0;
          s1 += mr[i] ? zr[i] * pr[i] : 0.0;
          s2 += mr[i] ? rr[i] * rr[i] : 0.0;
        }
      }
    } else {
      for (int j = 0; j < ny; ++j) {
        const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
        const double* MINIPOP_RESTRICT rr = r + j * rs;
        const double* MINIPOP_RESTRICT pr = rp + j * ps;
        const double* MINIPOP_RESTRICT zr = z + j * zs;
        for (int i = 0; i < nx; ++i) {
          s0 += mr[i] ? rr[i] * pr[i] : 0.0;
          s1 += mr[i] ? zr[i] * pr[i] : 0.0;
        }
      }
    }
    out[0] = s0;
    out[1] = s1;
    out[2] = s2;
  } else {
    const int w = eff_width<B>(nb);
    double* s0 = out;
    double* s1 = out + w;
    double* s2 = out + 2 * w;
    for (int j = 0; j < ny; ++j)
      row_dot3<B>(mask + j * ms, r + j * rs, rp + j * ps, z + j * zs, with_norm,
                  s0, s1, s2, nx, nb);
  }
}

template <int B>
void masked_sum(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* a, std::ptrdiff_t as,
                double* sums) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) sum += mr[i] ? ar[i] : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
        const unsigned char sel = mr[i];
        for (int mm = 0; mm < w; ++mm) sums[mm] += sel ? ar[ib + mm] : 0.0;
      }
    }
  }
}

template <int B>
void dot_shared(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* c, std::ptrdiff_t cs,
                const double* a, std::ptrdiff_t as, double* sums) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT cr = c + j * cs;
      const double* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) sum += mr[i] ? cr[i] * ar[i] : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT cr = c + j * cs;
      const double* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
        const unsigned char sel = mr[i];
        const double cv = cr[i];
        for (int mm = 0; mm < w; ++mm) sums[mm] += sel ? cv * ar[ib + mm] : 0.0;
      }
    }
  }
}

template <int B>
void lincomb(int nb, int nx, int ny, const double* a, const double* x,
             std::ptrdiff_t xs, const double* b, double* y, std::ptrdiff_t ys,
             const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_lincomb<B>(a, x + j * xs, b, y + j * ys, active, nx, nb);
}

template <int B>
void axpy(int nb, int nx, int ny, const double* a, const double* x,
          std::ptrdiff_t xs, double* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_axpy<B>(a, x + j * xs, y + j * ys, active, nx, nb);
}

template <int B>
void lincomb_axpy(int nb, int nx, int ny, const double* a, const double* x,
                  std::ptrdiff_t xs, const double* b, double* y,
                  std::ptrdiff_t ys, const double* c, double* z,
                  std::ptrdiff_t zs, const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_lincomb_axpy<B>(a, x + j * xs, b, y + j * ys, c, z + j * zs, active, nx,
                        nb);
}

template <int B>
void scale(int nb, int nx, int ny, const double* a, double* x,
           std::ptrdiff_t xs, const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_scale<B>(a, x + j * xs, active, nx, nb);
}


template <int B>
void mask_zero(const unsigned char* mask, std::ptrdiff_t ms, int nb,
               int nx, int ny, double* x, std::ptrdiff_t xs) {
  for (int j = 0; j < ny; ++j)
    row_mask_zero<B>(mask + j * ms, x + j * xs, nx, nb);
}

template <int B>
void diag_apply(const double* inv, std::ptrdiff_t is, int nb, int nx, int ny,
                const double* in, std::ptrdiff_t ins, double* out,
                std::ptrdiff_t outs) {
  for (int j = 0; j < ny; ++j)
    row_diag_apply<B>(inv + j * is, in + j * ins, out + j * outs, nx, nb);
}

template <int B>
void masked_copy(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
                 int ny, const double* in, std::ptrdiff_t ins, double* out,
                 std::ptrdiff_t outs) {
  for (int j = 0; j < ny; ++j)
    row_masked_copy<B>(mask + j * ms, in + j * ins, out + j * outs, nx, nb);
}
}  // namespace core
}  // namespace

// Public entry points: nb == 1 runs the width-1 (B = 1) instantiation,
// every other width the dynamic one — the dispatch of kernels.cpp.

void apply9(const Stencil9& c, int nb, int nx, int ny, const double* x,
            std::ptrdiff_t xs, double* y, std::ptrdiff_t ys) {
  if (nb == 1) return core::apply9<1>(c, 1, nx, ny, x, xs, y, ys);
  core::apply9<0>(c, nb, nx, ny, x, xs, y, ys);
}

void residual9(const Stencil9& c, int nb, int nx, int ny, const double* b,
               std::ptrdiff_t bs, const double* x, std::ptrdiff_t xs, double* r,
               std::ptrdiff_t rs) {
  if (nb == 1)
    return core::residual9<1>(c, 1, nx, ny, b, bs, x, xs, r, rs);
  core::residual9<0>(c, nb, nx, ny, b, bs, x, xs, r, rs);
}

void residual_norm2_9(const Stencil9& c, const unsigned char* mask,
                      std::ptrdiff_t ms, int nb, int nx, int ny,
                      const double* b, std::ptrdiff_t bs, const double* x,
                      std::ptrdiff_t xs, double* r, std::ptrdiff_t rs,
                      double* sums) {
  if (nb == 1)
    return core::residual_norm2_9<1>(c, mask, ms, 1, nx, ny, b, bs, x, xs, r,
                                     rs, sums);
  core::residual_norm2_9<0>(c, mask, ms, nb, nx, ny, b, bs, x, xs, r, rs, sums);
}

void dot(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const double* a, std::ptrdiff_t as, const double* b,
         std::ptrdiff_t bs, double* sums) {
  if (nb == 1)
    return core::dot<1>(mask, ms, 1, nx, ny, a, as, b, bs, sums);
  core::dot<0>(mask, ms, nb, nx, ny, a, as, b, bs, sums);
}

void dot3(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
          int ny, const double* r, std::ptrdiff_t rs, const double* rp,
          std::ptrdiff_t ps, const double* z, std::ptrdiff_t zs, bool with_norm,
          double* out) {
  if (nb == 1)
    return core::dot3<1>(mask, ms, 1, nx, ny, r, rs, rp, ps, z, zs, with_norm,
                         out);
  core::dot3<0>(mask, ms, nb, nx, ny, r, rs, rp, ps, z, zs, with_norm, out);
}

void sum(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const double* a, std::ptrdiff_t as, double* sums) {
  if (nb == 1) return core::masked_sum<1>(mask, ms, 1, nx, ny, a, as, sums);
  core::masked_sum<0>(mask, ms, nb, nx, ny, a, as, sums);
}

void dot_shared(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* c, std::ptrdiff_t cs,
                const double* a, std::ptrdiff_t as, double* sums) {
  if (nb == 1)
    return core::dot_shared<1>(mask, ms, 1, nx, ny, c, cs, a, as, sums);
  core::dot_shared<0>(mask, ms, nb, nx, ny, c, cs, a, as, sums);
}

void lincomb(int nb, int nx, int ny, const double* a, const double* x,
             std::ptrdiff_t xs, const double* b, double* y, std::ptrdiff_t ys,
             const unsigned char* active) {
  if (nb == 1)
    return core::lincomb<1>(1, nx, ny, a, x, xs, b, y, ys, active);
  core::lincomb<0>(nb, nx, ny, a, x, xs, b, y, ys, active);
}

void axpy(int nb, int nx, int ny, const double* a, const double* x,
          std::ptrdiff_t xs, double* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  if (nb == 1)
    return core::axpy<1>(1, nx, ny, a, x, xs, y, ys, active);
  core::axpy<0>(nb, nx, ny, a, x, xs, y, ys, active);
}

void lincomb_axpy(int nb, int nx, int ny, const double* a, const double* x,
                  std::ptrdiff_t xs, const double* b, double* y,
                  std::ptrdiff_t ys, const double* c, double* z,
                  std::ptrdiff_t zs, const unsigned char* active) {
  if (nb == 1)
    return core::lincomb_axpy<1>(1, nx, ny, a, x, xs, b, y, ys, c, z, zs,
                                 active);
  core::lincomb_axpy<0>(nb, nx, ny, a, x, xs, b, y, ys, c, z, zs, active);
}

void scale(int nb, int nx, int ny, const double* a, double* x,
           std::ptrdiff_t xs, const unsigned char* active) {
  if (nb == 1) return core::scale<1>(1, nx, ny, a, x, xs, active);
  core::scale<0>(nb, nx, ny, a, x, xs, active);
}

void mask_zero(const unsigned char* mask, std::ptrdiff_t ms, int nb,
               int nx, int ny, double* x, std::ptrdiff_t xs) {
  if (nb == 1) return core::mask_zero<1>(mask, ms, 1, nx, ny, x, xs);
  core::mask_zero<0>(mask, ms, nb, nx, ny, x, xs);
}

void diag_apply(const double* inv, std::ptrdiff_t is, int nb, int nx, int ny,
                const double* in, std::ptrdiff_t ins, double* out,
                std::ptrdiff_t outs) {
  if (nb == 1)
    return core::diag_apply<1>(inv, is, 1, nx, ny, in, ins, out, outs);
  core::diag_apply<0>(inv, is, nb, nx, ny, in, ins, out, outs);
}

void masked_copy(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
                 int ny, const double* in, std::ptrdiff_t ins, double* out,
                 std::ptrdiff_t outs) {
  if (nb == 1)
    return core::masked_copy<1>(mask, ms, 1, nx, ny, in, ins, out, outs);
  core::masked_copy<0>(mask, ms, nb, nx, ny, in, ins, out, outs);
}

}  // namespace minipop::solver::kernels::masked
