// Implementation notes
//
// The per-row helpers this family shares with the masked reference
// family (kernels_masked.cpp) live in kernel_rows.hpp: one body per
// width B with restrict-qualified parameters. Each sweep below hoists
// its row pointers once per j and hands every ocean span to a row helper
// with the pointers advanced to the span start and nx = span length —
// the per-cell expression and the row-major accumulation order over
// ocean cells are therefore those of the masked loops, which is the
// whole bitwise-identity story.
//
// Reductions accumulate scalar, row-major, per member, continuing from
// the caller's running sums in double.
#include "src/solver/kernels.hpp"

#include <cstring>

#include "src/solver/kernel_rows.hpp"

namespace minipop::solver::kernels {

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
inline void row_fill(double v, double* MINIPOP_RESTRICT x, int nx, int nb) {
  const std::ptrdiff_t row =
      static_cast<std::ptrdiff_t>(nx) * eff_width<B>(nb);
  for (std::ptrdiff_t i = 0; i < row; ++i) x[i] = v;
}

// Mask-free reduction row helpers for the span kernels: every cell they
// see is ocean, so the select collapses to an unconditional accumulate.
// Bit-identical to the masked helpers over the same cells because the
// masked forms add a literal 0.0 at land, and adding +0.0 never changes
// an IEEE accumulator (nor can it flip a +0.0-seeded sum to -0.0).

template <int B>
inline void row_residual_norm2_span(const double* MINIPOP_RESTRICT c0,
                                    const double* MINIPOP_RESTRICT ce,
                                    const double* MINIPOP_RESTRICT cw,
                                    const double* MINIPOP_RESTRICT cn,
                                    const double* MINIPOP_RESTRICT cs,
                                    const double* MINIPOP_RESTRICT cne,
                                    const double* MINIPOP_RESTRICT cnw,
                                    const double* MINIPOP_RESTRICT cse,
                                    const double* MINIPOP_RESTRICT csw,
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
      sum += rv * rv;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int mm = 0; mm < w; ++mm) {
        const double rv = b[ib + mm] - MINIPOP_POINT9B(ib, mm, w);
        r[ib + mm] = rv;
        sums[mm] += rv * rv;
      }
    }
  }
}

template <int B>
inline void row_dot_span(const double* MINIPOP_RESTRICT a,
                         const double* MINIPOP_RESTRICT b,
                         double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) sum += a[i] * b[i];
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int mm = 0; mm < w; ++mm) sums[mm] += a[ib + mm] * b[ib + mm];
    }
  }
}

template <int B>
inline void row_dot3_span(const double* MINIPOP_RESTRICT rr,
                          const double* MINIPOP_RESTRICT pr,
                          const double* MINIPOP_RESTRICT zr, bool with_norm,
                          double* MINIPOP_RESTRICT s0,
                          double* MINIPOP_RESTRICT s1,
                          double* MINIPOP_RESTRICT s2, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    for (int m = 0; m < w; ++m) {
      s0[m] += rr[ib + m] * pr[ib + m];
      s1[m] += zr[ib + m] * pr[ib + m];
      if (with_norm)
        s2[m] += rr[ib + m] * rr[ib + m];
    }
  }
}

template <int B>
inline void row_sum_span(const double* MINIPOP_RESTRICT a,
                         double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) sum += a[i];
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int mm = 0; mm < w; ++mm) sums[mm] += a[ib + mm];
    }
  }
}

template <int B>
inline void row_dot_shared_span(const double* MINIPOP_RESTRICT cr,
                                const double* MINIPOP_RESTRICT ar,
                                double* MINIPOP_RESTRICT sums, int nx,
                                int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) sum += cr[i] * ar[i];
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      const double cv = cr[i];
      for (int mm = 0; mm < w; ++mm) sums[mm] += cv * ar[ib + mm];
    }
  }
}


// ---------------------------------------------------------------------
// Span core: block drivers over per-row ocean-span lists, templated on
// the width B (B = 1 the width-1 code path, B = 0 the dynamic width).
// ---------------------------------------------------------------------

namespace spancore {

template <int B>
void apply9(const Stencil9& c, const int* ro, const Span* sp, int nb,
            int ny, const double* x, std::ptrdiff_t xs, double* y,
            std::ptrdiff_t ys) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const double* x0 = x + j * xs;
    double* yr = y + j * ys;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_apply9<B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci, c.cs + ci,
                    c.cne + ci, c.cnw + ci, c.cse + ci, c.csw + ci,
                    x0 - xs + ib, x0 + ib, x0 + xs + ib, yr + ib, sp[s].len,
                    nb);
    }
  }
}

template <int B>
void residual9(const Stencil9& c, const int* ro, const Span* sp, int nb, int ny,
               const double* b, std::ptrdiff_t bs, const double* x,
               std::ptrdiff_t xs, double* r, std::ptrdiff_t rs) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const double* x0 = x + j * xs;
    const double* br = b + j * bs;
    double* rr = r + j * rs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_residual9<B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci, c.cs + ci,
                       c.cne + ci, c.cnw + ci, c.cse + ci, c.csw + ci, br + ib,
                       x0 - xs + ib, x0 + ib, x0 + xs + ib, rr + ib, sp[s].len,
                       nb);
    }
  }
}

template <int B>
void residual_norm2_9(const Stencil9& c, const int* ro, const Span* sp,
                      int nb, int ny, const double* b, std::ptrdiff_t bs,
                      const double* x, std::ptrdiff_t xs, double* r,
                      std::ptrdiff_t rs, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const double* x0 = x + j * xs;
    const double* br = b + j * bs;
    double* rr = r + j * rs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_residual_norm2_span<B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci,
                                 c.cs + ci, c.cne + ci, c.cnw + ci, c.cse + ci,
                                 c.csw + ci, br + ib, x0 - xs + ib, x0 + ib,
                                 x0 + xs + ib, rr + ib, sums, sp[s].len, nb);
    }
  }
}

template <int B>
void dot(const int* ro, const Span* sp, int nb, int ny, const double* a,
         std::ptrdiff_t as, const double* b, std::ptrdiff_t bs, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const double* ar = a + j * as;
    const double* br = b + j * bs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_dot_span<B>(ar + ib, br + ib, sums, sp[s].len, nb);
    }
  }
}

template <int B>
void dot3(const int* ro, const Span* sp, int nb, int ny, const double* r,
          std::ptrdiff_t rs, const double* rp, std::ptrdiff_t ps,
          const double* z, std::ptrdiff_t zs, bool with_norm, double* out) {
  if constexpr (B == 1) {
    // Width-1 fast path mirrors core::dot3: register accumulators and
    // the with_norm branch hoisted out of the sweep.
    double s0 = out[0], s1 = out[1], s2 = out[2];
    if (with_norm) {
      for (int j = 0; j < ny; ++j) {
        for (int s = ro[j]; s < ro[j + 1]; ++s) {
          const double* MINIPOP_RESTRICT rr = r + j * rs + sp[s].i0;
          const double* MINIPOP_RESTRICT pr = rp + j * ps + sp[s].i0;
          const double* MINIPOP_RESTRICT zr = z + j * zs + sp[s].i0;
          const int len = sp[s].len;
          for (int i = 0; i < len; ++i) {
            s0 += rr[i] * pr[i];
            s1 += zr[i] * pr[i];
            s2 += rr[i] * rr[i];
          }
        }
      }
    } else {
      for (int j = 0; j < ny; ++j) {
        for (int s = ro[j]; s < ro[j + 1]; ++s) {
          const double* MINIPOP_RESTRICT rr = r + j * rs + sp[s].i0;
          const double* MINIPOP_RESTRICT pr = rp + j * ps + sp[s].i0;
          const double* MINIPOP_RESTRICT zr = z + j * zs + sp[s].i0;
          const int len = sp[s].len;
          for (int i = 0; i < len; ++i) {
            s0 += rr[i] * pr[i];
            s1 += zr[i] * pr[i];
          }
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
      for (int s = ro[j]; s < ro[j + 1]; ++s) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
        row_dot3_span<B>(r + j * rs + ib, rp + j * ps + ib, z + j * zs + ib,
                         with_norm, s0, s1, s2, sp[s].len, nb);
      }
  }
}

template <int B>
void sum(const int* ro, const Span* sp, int nb, int ny, const double* a,
         std::ptrdiff_t as, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const double* ar = a + j * as;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_sum_span<B>(ar + ib, sums, sp[s].len, nb);
    }
  }
}

template <int B>
void dot_shared(const int* ro, const Span* sp, int nb, int ny,
                const double* c, std::ptrdiff_t cs, const double* a,
                std::ptrdiff_t as, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const double* cr = c + j * cs;
    const double* ar = a + j * as;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_dot_shared_span<B>(cr + sp[s].i0, ar + ib, sums, sp[s].len, nb);
    }
  }
}

template <int B>
void lincomb(const int* ro, const Span* sp, int nb, int ny, const double* a,
             const double* x, std::ptrdiff_t xs, const double* b, double* y,
             std::ptrdiff_t ys, const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_lincomb<B>(a, x + j * xs + ib, b, y + j * ys + ib, active, sp[s].len,
                     nb);
    }
}

template <int B>
void axpy(const int* ro, const Span* sp, int nb, int ny, const double* a,
          const double* x, std::ptrdiff_t xs, double* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_axpy<B>(a, x + j * xs + ib, y + j * ys + ib, active, sp[s].len, nb);
    }
}

template <int B>
void lincomb_axpy(const int* ro, const Span* sp, int nb, int ny,
                  const double* a, const double* x, std::ptrdiff_t xs,
                  const double* b, double* y, std::ptrdiff_t ys,
                  const double* c, double* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_lincomb_axpy<B>(a, x + j * xs + ib, b, y + j * ys + ib, c,
                          z + j * zs + ib, active, sp[s].len, nb);
    }
}

template <int B>
void scale(const int* ro, const Span* sp, int nb, int ny, const double* a,
           double* x, std::ptrdiff_t xs, const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_scale<B>(a, x + j * xs + ib, active, sp[s].len, nb);
    }
}

/// Zero every gap (land run) of row j of `x`; the spans themselves are
/// left untouched. Shared by the three gap-zeroing span kernels.
template <int B>
inline void zero_gaps(const int* ro, const Span* sp, int nb, int nx, int j,
                      double* xr) {
  const int w = eff_width<B>(nb);
  int prev = 0;
  for (int s = ro[j]; s < ro[j + 1]; ++s) {
    if (sp[s].i0 > prev)
      row_fill<B>(0.0, xr + static_cast<std::ptrdiff_t>(prev) * w,
                  sp[s].i0 - prev, nb);
    prev = sp[s].i0 + sp[s].len;
  }
  if (nx > prev)
    row_fill<B>(0.0, xr + static_cast<std::ptrdiff_t>(prev) * w, nx - prev, nb);
}

template <int B>
void mask_zero(const int* ro, const Span* sp, int nb, int nx, int ny, double* x,
               std::ptrdiff_t xs) {
  // Strictly cheaper than the masked kernel: ocean cells keep their
  // value by NOT being rewritten (bit-identical to the masked rewrite).
  for (int j = 0; j < ny; ++j)
    zero_gaps<B>(ro, sp, nb, nx, j, x + j * xs);
}

template <int B>
void diag_apply(const double* inv, std::ptrdiff_t is, const int* ro,
                const Span* sp, int nb, int nx, int ny, const double* in,
                std::ptrdiff_t ins, double* out, std::ptrdiff_t outs) {
  // inv is 0 on land, so the masked kernel writes exact zeros in the
  // gaps — zero_gaps reproduces them without loading inv or in there.
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    double* orow = out + j * outs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_diag_apply<B>(inv + j * is + sp[s].i0, in + j * ins + ib, orow + ib,
                        sp[s].len, nb);
    }
    zero_gaps<B>(ro, sp, nb, nx, j, orow);
  }
}

template <int B>
void masked_copy(const int* ro, const Span* sp, int nb, int nx, int ny,
                 const double* in, std::ptrdiff_t ins, double* out,
                 std::ptrdiff_t outs) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const double* irow = in + j * ins;
    double* orow = out + j * outs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      std::memcpy(orow + ib, irow + ib,
                  static_cast<std::size_t>(sp[s].len) * w * sizeof(double));
    }
    zero_gaps<B>(ro, sp, nb, nx, j, orow);
  }
}

}  // namespace spancore
}  // namespace

// ---------------------------------------------------------------------
// Public entry points: nb == 1 runs the width-1 (B = 1) instantiation,
// every other width the dynamic one.
// ---------------------------------------------------------------------

void apply9(const Stencil9& c, const int* row_offset, const Span* spans,
            int nb, int ny, const double* x, std::ptrdiff_t xs, double* y,
            std::ptrdiff_t ys) {
  if (nb == 1)
    return spancore::apply9<1>(c, row_offset, spans, 1, ny, x, xs, y, ys);
  spancore::apply9<0>(c, row_offset, spans, nb, ny, x, xs, y, ys);
}

void residual9(const Stencil9& c, const int* row_offset,
               const Span* spans, int nb, int ny, const double* b,
               std::ptrdiff_t bs, const double* x, std::ptrdiff_t xs, double* r,
               std::ptrdiff_t rs) {
  if (nb == 1)
    return spancore::residual9<1>(c, row_offset, spans, 1, ny, b, bs, x, xs, r,
                                  rs);
  spancore::residual9<0>(c, row_offset, spans, nb, ny, b, bs, x, xs, r, rs);
}

void residual_norm2_9(const Stencil9& c, const int* row_offset,
                      const Span* spans, int nb, int ny, const double* b,
                      std::ptrdiff_t bs, const double* x, std::ptrdiff_t xs,
                      double* r, std::ptrdiff_t rs, double* sums) {
  if (nb == 1)
    return spancore::residual_norm2_9<1>(c, row_offset, spans, 1, ny, b, bs, x,
                                         xs, r, rs, sums);
  spancore::residual_norm2_9<0>(c, row_offset, spans, nb, ny, b, bs, x, xs, r,
                                rs, sums);
}

void dot(const int* row_offset, const Span* spans, int nb, int ny,
         const double* a, std::ptrdiff_t as, const double* b, std::ptrdiff_t bs,
         double* sums) {
  if (nb == 1)
    return spancore::dot<1>(row_offset, spans, 1, ny, a, as, b, bs, sums);
  spancore::dot<0>(row_offset, spans, nb, ny, a, as, b, bs, sums);
}

void dot3(const int* row_offset, const Span* spans, int nb, int ny,
          const double* r, std::ptrdiff_t rs, const double* rp,
          std::ptrdiff_t ps, const double* z, std::ptrdiff_t zs, bool with_norm,
          double* out) {
  if (nb == 1)
    return spancore::dot3<1>(row_offset, spans, 1, ny, r, rs, rp, ps, z, zs,
                             with_norm, out);
  spancore::dot3<0>(row_offset, spans, nb, ny, r, rs, rp, ps, z, zs, with_norm,
                    out);
}

void sum(const int* row_offset, const Span* spans, int nb, int ny,
         const double* a, std::ptrdiff_t as, double* sums) {
  if (nb == 1)
    return spancore::sum<1>(row_offset, spans, 1, ny, a, as, sums);
  spancore::sum<0>(row_offset, spans, nb, ny, a, as, sums);
}

void dot_shared(const int* row_offset, const Span* spans, int nb, int ny,
                const double* c, std::ptrdiff_t cs, const double* a,
                std::ptrdiff_t as, double* sums) {
  if (nb == 1)
    return spancore::dot_shared<1>(row_offset, spans, 1, ny, c, cs, a, as,
                                   sums);
  spancore::dot_shared<0>(row_offset, spans, nb, ny, c, cs, a, as, sums);
}

void lincomb(const int* row_offset, const Span* spans, int nb, int ny,
             const double* a, const double* x, std::ptrdiff_t xs,
             const double* b, double* y, std::ptrdiff_t ys,
             const unsigned char* active) {
  if (nb == 1)
    return spancore::lincomb<1>(row_offset, spans, 1, ny, a, x, xs, b, y, ys,
                                active);
  spancore::lincomb<0>(row_offset, spans, nb, ny, a, x, xs, b, y, ys, active);
}

void axpy(const int* row_offset, const Span* spans, int nb, int ny,
          const double* a, const double* x, std::ptrdiff_t xs, double* y,
          std::ptrdiff_t ys, const unsigned char* active) {
  if (nb == 1)
    return spancore::axpy<1>(row_offset, spans, 1, ny, a, x, xs, y, ys, active);
  spancore::axpy<0>(row_offset, spans, nb, ny, a, x, xs, y, ys, active);
}

void lincomb_axpy(const int* row_offset, const Span* spans, int nb, int ny,
                  const double* a, const double* x, std::ptrdiff_t xs,
                  const double* b, double* y, std::ptrdiff_t ys,
                  const double* c, double* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  if (nb == 1)
    return spancore::lincomb_axpy<1>(row_offset, spans, 1, ny, a, x, xs, b, y,
                                     ys, c, z, zs, active);
  spancore::lincomb_axpy<0>(row_offset, spans, nb, ny, a, x, xs, b, y, ys, c, z,
                            zs, active);
}

void scale(const int* row_offset, const Span* spans, int nb, int ny,
           const double* a, double* x, std::ptrdiff_t xs,
           const unsigned char* active) {
  if (nb == 1)
    return spancore::scale<1>(row_offset, spans, 1, ny, a, x, xs, active);
  spancore::scale<0>(row_offset, spans, nb, ny, a, x, xs, active);
}

void mask_zero(const int* row_offset, const Span* spans, int nb, int nx,
               int ny, double* x, std::ptrdiff_t xs) {
  if (nb == 1)
    return spancore::mask_zero<1>(row_offset, spans, 1, nx, ny, x, xs);
  spancore::mask_zero<0>(row_offset, spans, nb, nx, ny, x, xs);
}

void diag_apply(const double* inv, std::ptrdiff_t is, const int* row_offset,
                const Span* spans, int nb, int nx, int ny, const double* in,
                std::ptrdiff_t ins, double* out, std::ptrdiff_t outs) {
  if (nb == 1)
    return spancore::diag_apply<1>(inv, is, row_offset, spans, 1, nx, ny, in,
                                   ins, out, outs);
  spancore::diag_apply<0>(inv, is, row_offset, spans, nb, nx, ny, in, ins, out,
                          outs);
}

void masked_copy(const int* row_offset, const Span* spans, int nb, int nx,
                 int ny, const double* in, std::ptrdiff_t ins, double* out,
                 std::ptrdiff_t outs) {
  if (nb == 1)
    return spancore::masked_copy<1>(row_offset, spans, 1, nx, ny, in, ins, out,
                                    outs);
  spancore::masked_copy<0>(row_offset, spans, nb, nx, ny, in, ins, out, outs);
}

void copy(int nb, int nx, int ny, const double* x, std::ptrdiff_t xs, double* y,
          std::ptrdiff_t ys) {
  const std::size_t row = static_cast<std::size_t>(nx) * nb * sizeof(double);
  for (int j = 0; j < ny; ++j) std::memcpy(y + j * ys, x + j * xs, row);
}

void fill(int nb, int nx, int ny, double v, double* x, std::ptrdiff_t xs) {
  for (int j = 0; j < ny; ++j) row_fill<0>(v, x + j * xs, nx, nb);
}

}  // namespace minipop::solver::kernels
