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

template <typename T, int B>
inline void row_residual_norm2(const T* MINIPOP_RESTRICT c0,
                               const T* MINIPOP_RESTRICT ce,
                               const T* MINIPOP_RESTRICT cw,
                               const T* MINIPOP_RESTRICT cn,
                               const T* MINIPOP_RESTRICT cs,
                               const T* MINIPOP_RESTRICT cne,
                               const T* MINIPOP_RESTRICT cnw,
                               const T* MINIPOP_RESTRICT cse,
                               const T* MINIPOP_RESTRICT csw,
                               const unsigned char* MINIPOP_RESTRICT m,
                               const T* MINIPOP_RESTRICT b,
                               const T* MINIPOP_RESTRICT xm,
                               const T* MINIPOP_RESTRICT x0,
                               const T* MINIPOP_RESTRICT xp,
                               T* MINIPOP_RESTRICT r,
                               double* MINIPOP_RESTRICT sums, int nx,
                               int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) {
      const T rv = b[i] - MINIPOP_POINT9(i);
      r[i] = rv;
      sum += m[i] ? static_cast<double>(rv) * static_cast<double>(rv) : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      const unsigned char sel = m[i];
      for (int mm = 0; mm < w; ++mm) {
        const T rv = b[ib + mm] - MINIPOP_POINT9B(ib, mm, w);
        r[ib + mm] = rv;
        sums[mm] +=
            sel ? static_cast<double>(rv) * static_cast<double>(rv) : 0.0;
      }
    }
  }
}

template <typename T, int B>
inline void row_dot(const unsigned char* MINIPOP_RESTRICT m,
                    const T* MINIPOP_RESTRICT a,
                    const T* MINIPOP_RESTRICT b,
                    double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i)
      sum += m[i] ? static_cast<double>(a[i]) * static_cast<double>(b[i])
                  : 0.0;
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      const unsigned char sel = m[i];
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += sel ? static_cast<double>(a[ib + mm]) *
                              static_cast<double>(b[ib + mm])
                        : 0.0;
    }
  }
}

template <typename T, int B>
inline void row_dot3(const unsigned char* MINIPOP_RESTRICT mr,
                     const T* MINIPOP_RESTRICT rr,
                     const T* MINIPOP_RESTRICT pr,
                     const T* MINIPOP_RESTRICT zr, bool with_norm,
                     double* MINIPOP_RESTRICT s0,
                     double* MINIPOP_RESTRICT s1,
                     double* MINIPOP_RESTRICT s2, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) {
      s0[m] += sel ? static_cast<double>(rr[ib + m]) *
                         static_cast<double>(pr[ib + m])
                   : 0.0;
      s1[m] += sel ? static_cast<double>(zr[ib + m]) *
                         static_cast<double>(pr[ib + m])
                   : 0.0;
      if (with_norm)
        s2[m] += sel ? static_cast<double>(rr[ib + m]) *
                           static_cast<double>(rr[ib + m])
                     : 0.0;
    }
  }
}

template <typename T, int B>
inline void row_mask_zero(const unsigned char* MINIPOP_RESTRICT mr,
                          T* MINIPOP_RESTRICT x, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) x[ib + m] = sel ? x[ib + m] : T(0);
  }
}

template <typename T, int B>
inline void row_masked_copy(const unsigned char* MINIPOP_RESTRICT mr,
                            const T* MINIPOP_RESTRICT ir,
                            T* MINIPOP_RESTRICT orr, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) orr[ib + m] = sel ? ir[ib + m] : T(0);
  }
}

// Block drivers: hoist row pointers, delegate to the restrict-parameter
// row helpers.
namespace core {

template <typename T, int B>
void apply9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* x,
            std::ptrdiff_t xs, T* y, std::ptrdiff_t ys) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    row_apply9<T, B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj, c.cs + cj,
                     c.cne + cj, c.cnw + cj, c.cse + cj, c.csw + cj,
                     x0 - xs, x0, x0 + xs, y + j * ys, nx, nb);
  }
}

template <typename T, int B>
void residual9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* b,
               std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs, T* r,
               std::ptrdiff_t rs) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    row_residual9<T, B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj,
                        c.cs + cj, c.cne + cj, c.cnw + cj, c.cse + cj,
                        c.csw + cj, b + j * bs, x0 - xs, x0, x0 + xs,
                        r + j * rs, nx, nb);
  }
}

template <typename T, int B>
void residual_norm2_9(const Stencil9T<T>& c, const unsigned char* mask,
                      std::ptrdiff_t ms, int nb, int nx, int ny, const T* b,
                      std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                      T* r, std::ptrdiff_t rs, double* sums) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    row_residual_norm2<T, B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj,
                             c.cs + cj, c.cne + cj, c.cnw + cj, c.cse + cj,
                             c.csw + cj, mask + j * ms, b + j * bs, x0 - xs,
                             x0, x0 + xs, r + j * rs, sums, nx, nb);
  }
}

template <typename T, int B>
void dot(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const T* a, std::ptrdiff_t as, const T* b,
         std::ptrdiff_t bs, double* sums) {
  for (int j = 0; j < ny; ++j)
    row_dot<T, B>(mask + j * ms, a + j * as, b + j * bs, sums, nx, nb);
}

template <typename T, int B>
void dot3(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
          int ny, const T* r, std::ptrdiff_t rs, const T* rp,
          std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs, bool with_norm,
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
        const T* MINIPOP_RESTRICT rr = r + j * rs;
        const T* MINIPOP_RESTRICT pr = rp + j * ps;
        const T* MINIPOP_RESTRICT zr = z + j * zs;
        for (int i = 0; i < nx; ++i) {
          s0 += mr[i]
                    ? static_cast<double>(rr[i]) * static_cast<double>(pr[i])
                    : 0.0;
          s1 += mr[i]
                    ? static_cast<double>(zr[i]) * static_cast<double>(pr[i])
                    : 0.0;
          s2 += mr[i]
                    ? static_cast<double>(rr[i]) * static_cast<double>(rr[i])
                    : 0.0;
        }
      }
    } else {
      for (int j = 0; j < ny; ++j) {
        const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
        const T* MINIPOP_RESTRICT rr = r + j * rs;
        const T* MINIPOP_RESTRICT pr = rp + j * ps;
        const T* MINIPOP_RESTRICT zr = z + j * zs;
        for (int i = 0; i < nx; ++i) {
          s0 += mr[i]
                    ? static_cast<double>(rr[i]) * static_cast<double>(pr[i])
                    : 0.0;
          s1 += mr[i]
                    ? static_cast<double>(zr[i]) * static_cast<double>(pr[i])
                    : 0.0;
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
      row_dot3<T, B>(mask + j * ms, r + j * rs, rp + j * ps, z + j * zs,
                     with_norm, s0, s1, s2, nx, nb);
  }
}

template <typename T, int B>
void masked_sum(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const T* a, std::ptrdiff_t as,
                double* sums) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i)
        sum += mr[i] ? static_cast<double>(ar[i]) : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
        const unsigned char sel = mr[i];
        for (int mm = 0; mm < w; ++mm)
          sums[mm] += sel ? static_cast<double>(ar[ib + mm]) : 0.0;
      }
    }
  }
}

template <typename T, int B>
void dot_shared(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* c, std::ptrdiff_t cs,
                const T* a, std::ptrdiff_t as, double* sums) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT cr = c + j * cs;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i)
        sum += mr[i] ? cr[i] * static_cast<double>(ar[i]) : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT cr = c + j * cs;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
        const unsigned char sel = mr[i];
        const double cv = cr[i];
        for (int mm = 0; mm < w; ++mm)
          sums[mm] += sel ? cv * static_cast<double>(ar[ib + mm]) : 0.0;
      }
    }
  }
}

template <typename T, int B>
void lincomb(int nb, int nx, int ny, const T* a, const T* x,
             std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
             const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_lincomb<T, B>(a, x + j * xs, b, y + j * ys, active, nx, nb);
}

template <typename T, int B>
void axpy(int nb, int nx, int ny, const T* a, const T* x,
          std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_axpy<T, B>(a, x + j * xs, y + j * ys, active, nx, nb);
}

template <typename T, int B>
void lincomb_axpy(int nb, int nx, int ny, const T* a, const T* x,
                  std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
                  const T* c, T* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_lincomb_axpy<T, B>(a, x + j * xs, b, y + j * ys, c, z + j * zs,
                           active, nx, nb);
}

template <typename T, int B>
void scale(int nb, int nx, int ny, const T* a, T* x, std::ptrdiff_t xs,
           const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_scale<T, B>(a, x + j * xs, active, nx, nb);
}


template <typename T, int B>
void mask_zero(const unsigned char* mask, std::ptrdiff_t ms, int nb,
               int nx, int ny, T* x, std::ptrdiff_t xs) {
  for (int j = 0; j < ny; ++j)
    row_mask_zero<T, B>(mask + j * ms, x + j * xs, nx, nb);
}

template <typename T, int B>
void diag_apply(const T* inv, std::ptrdiff_t is, int nb, int nx, int ny,
                const T* in, std::ptrdiff_t ins, T* out,
                std::ptrdiff_t outs) {
  for (int j = 0; j < ny; ++j)
    row_diag_apply<T, B>(inv + j * is, in + j * ins, out + j * outs, nx,
                         nb);
}

template <typename T, int B>
void masked_copy(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                 int nx, int ny, const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs) {
  for (int j = 0; j < ny; ++j)
    row_masked_copy<T, B>(mask + j * ms, in + j * ins, out + j * outs, nx,
                          nb);
}
}  // namespace core
}  // namespace

// Public entry points: nb == 1 runs the width-1 (B = 1) instantiation,
// every other width the dynamic one — the dispatch of kernels.cpp.

template <typename T>
void apply9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* x,
            std::ptrdiff_t xs, T* y, std::ptrdiff_t ys) {
  if (nb == 1) return core::apply9<T, 1>(c, 1, nx, ny, x, xs, y, ys);
  core::apply9<T, 0>(c, nb, nx, ny, x, xs, y, ys);
}

template <typename T>
void residual9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* b,
               std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs, T* r,
               std::ptrdiff_t rs) {
  if (nb == 1)
    return core::residual9<T, 1>(c, 1, nx, ny, b, bs, x, xs, r, rs);
  core::residual9<T, 0>(c, nb, nx, ny, b, bs, x, xs, r, rs);
}

template <typename T>
void residual_norm2_9(const Stencil9T<T>& c, const unsigned char* mask,
                      std::ptrdiff_t ms, int nb, int nx, int ny, const T* b,
                      std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                      T* r, std::ptrdiff_t rs, double* sums) {
  if (nb == 1)
    return core::residual_norm2_9<T, 1>(c, mask, ms, 1, nx, ny, b, bs, x,
                                        xs, r, rs, sums);
  core::residual_norm2_9<T, 0>(c, mask, ms, nb, nx, ny, b, bs, x, xs, r,
                               rs, sums);
}

template <typename T>
void dot(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const T* a, std::ptrdiff_t as, const T* b,
         std::ptrdiff_t bs, double* sums) {
  if (nb == 1)
    return core::dot<T, 1>(mask, ms, 1, nx, ny, a, as, b, bs, sums);
  core::dot<T, 0>(mask, ms, nb, nx, ny, a, as, b, bs, sums);
}

template <typename T>
void dot3(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
          int ny, const T* r, std::ptrdiff_t rs, const T* rp,
          std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs, bool with_norm,
          double* out) {
  if (nb == 1)
    return core::dot3<T, 1>(mask, ms, 1, nx, ny, r, rs, rp, ps, z, zs,
                            with_norm, out);
  core::dot3<T, 0>(mask, ms, nb, nx, ny, r, rs, rp, ps, z, zs, with_norm,
                   out);
}

template <typename T>
void sum(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const T* a, std::ptrdiff_t as, double* sums) {
  if (nb == 1) return core::masked_sum<T, 1>(mask, ms, 1, nx, ny, a, as, sums);
  core::masked_sum<T, 0>(mask, ms, nb, nx, ny, a, as, sums);
}

template <typename T>
void dot_shared(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* c, std::ptrdiff_t cs,
                const T* a, std::ptrdiff_t as, double* sums) {
  if (nb == 1)
    return core::dot_shared<T, 1>(mask, ms, 1, nx, ny, c, cs, a, as, sums);
  core::dot_shared<T, 0>(mask, ms, nb, nx, ny, c, cs, a, as, sums);
}

template <typename T>
void lincomb(int nb, int nx, int ny, const T* a, const T* x,
             std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
             const unsigned char* active) {
  if (nb == 1)
    return core::lincomb<T, 1>(1, nx, ny, a, x, xs, b, y, ys, active);
  core::lincomb<T, 0>(nb, nx, ny, a, x, xs, b, y, ys, active);
}

template <typename T>
void axpy(int nb, int nx, int ny, const T* a, const T* x,
          std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  if (nb == 1)
    return core::axpy<T, 1>(1, nx, ny, a, x, xs, y, ys, active);
  core::axpy<T, 0>(nb, nx, ny, a, x, xs, y, ys, active);
}

template <typename T>
void lincomb_axpy(int nb, int nx, int ny, const T* a, const T* x,
                  std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
                  const T* c, T* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  if (nb == 1)
    return core::lincomb_axpy<T, 1>(1, nx, ny, a, x, xs, b, y, ys, c, z,
                                    zs, active);
  core::lincomb_axpy<T, 0>(nb, nx, ny, a, x, xs, b, y, ys, c, z, zs,
                           active);
}

template <typename T>
void scale(int nb, int nx, int ny, const T* a, T* x, std::ptrdiff_t xs,
           const unsigned char* active) {
  if (nb == 1) return core::scale<T, 1>(1, nx, ny, a, x, xs, active);
  core::scale<T, 0>(nb, nx, ny, a, x, xs, active);
}

template <typename T>
void mask_zero(const unsigned char* mask, std::ptrdiff_t ms, int nb,
               int nx, int ny, T* x, std::ptrdiff_t xs) {
  if (nb == 1) return core::mask_zero<T, 1>(mask, ms, 1, nx, ny, x, xs);
  core::mask_zero<T, 0>(mask, ms, nb, nx, ny, x, xs);
}

template <typename T>
void diag_apply(const T* inv, std::ptrdiff_t is, int nb, int nx, int ny,
                const T* in, std::ptrdiff_t ins, T* out,
                std::ptrdiff_t outs) {
  if (nb == 1)
    return core::diag_apply<T, 1>(inv, is, 1, nx, ny, in, ins, out, outs);
  core::diag_apply<T, 0>(inv, is, nb, nx, ny, in, ins, out, outs);
}

template <typename T>
void masked_copy(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                 int nx, int ny, const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs) {
  if (nb == 1)
    return core::masked_copy<T, 1>(mask, ms, 1, nx, ny, in, ins, out,
                                   outs);
  core::masked_copy<T, 0>(mask, ms, nb, nx, ny, in, ins, out, outs);
}

#define MINIPOP_KERNELS_MASKED_INSTANTIATE(T)                              \
  template void apply9<T>(const Stencil9T<T>&, int, int, int, const T*,    \
                          std::ptrdiff_t, T*, std::ptrdiff_t);             \
  template void residual9<T>(const Stencil9T<T>&, int, int, int, const T*, \
                             std::ptrdiff_t, const T*, std::ptrdiff_t, T*, \
                             std::ptrdiff_t);                              \
  template void residual_norm2_9<T>(                                       \
      const Stencil9T<T>&, const unsigned char*, std::ptrdiff_t, int, int, \
      int, const T*, std::ptrdiff_t, const T*, std::ptrdiff_t, T*,         \
      std::ptrdiff_t, double*);                                            \
  template void dot<T>(const unsigned char*, std::ptrdiff_t, int, int,     \
                       int, const T*, std::ptrdiff_t, const T*,            \
                       std::ptrdiff_t, double*);                           \
  template void dot3<T>(const unsigned char*, std::ptrdiff_t, int, int,    \
                        int, const T*, std::ptrdiff_t, const T*,           \
                        std::ptrdiff_t, const T*, std::ptrdiff_t, bool,    \
                        double*);                                          \
  template void sum<T>(const unsigned char*, std::ptrdiff_t, int, int,     \
                       int, const T*, std::ptrdiff_t, double*);            \
  template void dot_shared<T>(const unsigned char*, std::ptrdiff_t, int,   \
                              int, int, const double*, std::ptrdiff_t,     \
                              const T*, std::ptrdiff_t, double*);          \
  template void lincomb<T>(int, int, int, const T*, const T*,              \
                           std::ptrdiff_t, const T*, T*, std::ptrdiff_t,   \
                           const unsigned char*);                          \
  template void axpy<T>(int, int, int, const T*, const T*, std::ptrdiff_t, \
                        T*, std::ptrdiff_t, const unsigned char*);         \
  template void lincomb_axpy<T>(int, int, int, const T*, const T*,         \
                                std::ptrdiff_t, const T*, T*,              \
                                std::ptrdiff_t, const T*, T*,              \
                                std::ptrdiff_t, const unsigned char*);     \
  template void scale<T>(int, int, int, const T*, T*, std::ptrdiff_t,      \
                         const unsigned char*);                            \
  template void mask_zero<T>(const unsigned char*, std::ptrdiff_t, int,    \
                             int, int, T*, std::ptrdiff_t);                \
  template void diag_apply<T>(const T*, std::ptrdiff_t, int, int, int,     \
                              const T*, std::ptrdiff_t, T*,                \
                              std::ptrdiff_t);                             \
  template void masked_copy<T>(const unsigned char*, std::ptrdiff_t, int,  \
                               int, int, const T*, std::ptrdiff_t, T*,     \
                               std::ptrdiff_t);

MINIPOP_KERNELS_MASKED_INSTANTIATE(double)
#undef MINIPOP_KERNELS_MASKED_INSTANTIATE

}  // namespace minipop::solver::kernels::masked
