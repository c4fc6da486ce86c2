// Implementation notes
//
// The per-row helpers this family shares with the masked reference
// family (kernels_masked.cpp) live in kernel_rows.hpp: one body per
// (T, B) with restrict-qualified parameters. Each sweep below hoists its
// row pointers once per j and hands every ocean span to a row helper
// with the pointers advanced to the span start and nx = span length —
// the per-cell expression and the row-major accumulation order over
// ocean cells are therefore those of the masked loops, which is the
// whole bitwise-identity story.
//
// Reductions accumulate scalar, row-major, per member, continuing from
// the caller's running sums. Accumulators are double for both storage
// scalars; reduction operands are widened BEFORE multiplying so fp32
// products enter the accumulator exactly. For T = double the widening
// casts are no-ops.
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

template <typename T, int B>
inline void row_fill(T v, T* MINIPOP_RESTRICT x, int nx, int nb) {
  const std::ptrdiff_t row =
      static_cast<std::ptrdiff_t>(nx) * eff_width<B>(nb);
  for (std::ptrdiff_t i = 0; i < row; ++i) x[i] = v;
}

template <int B>
inline void row_axpy_promoted(const double* MINIPOP_RESTRICT a,
                              const float* MINIPOP_RESTRICT x,
                              double* MINIPOP_RESTRICT y,
                              const unsigned char* MINIPOP_RESTRICT active,
                              int nx, int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const double av = a[0];
    for (int i = 0; i < nx; ++i) y[i] += av * static_cast<double>(x[i]);
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        y[ib + m] += a[m] * static_cast<double>(x[ib + m]);
      }
    }
  }
}

template <typename D, typename S>
inline void row_convert(const S* MINIPOP_RESTRICT x, D* MINIPOP_RESTRICT y,
                        int nx) {
  for (int i = 0; i < nx; ++i) y[i] = static_cast<D>(x[i]);
}

// Mask-free reduction row helpers for the span kernels: every cell they
// see is ocean, so the select collapses to an unconditional accumulate.
// Bit-identical to the masked helpers over the same cells because the
// masked forms add a literal 0.0 at land, and adding +0.0 never changes
// an IEEE accumulator (nor can it flip a +0.0-seeded sum to -0.0).

template <typename T, int B>
inline void row_residual_norm2_span(const T* MINIPOP_RESTRICT c0,
                                    const T* MINIPOP_RESTRICT ce,
                                    const T* MINIPOP_RESTRICT cw,
                                    const T* MINIPOP_RESTRICT cn,
                                    const T* MINIPOP_RESTRICT cs,
                                    const T* MINIPOP_RESTRICT cne,
                                    const T* MINIPOP_RESTRICT cnw,
                                    const T* MINIPOP_RESTRICT cse,
                                    const T* MINIPOP_RESTRICT csw,
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
      sum += static_cast<double>(rv) * static_cast<double>(rv);
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int mm = 0; mm < w; ++mm) {
        const T rv = b[ib + mm] - MINIPOP_POINT9B(ib, mm, w);
        r[ib + mm] = rv;
        sums[mm] += static_cast<double>(rv) * static_cast<double>(rv);
      }
    }
  }
}

template <typename T, int B>
inline void row_dot_span(const T* MINIPOP_RESTRICT a,
                         const T* MINIPOP_RESTRICT b,
                         double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i)
      sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += static_cast<double>(a[ib + mm]) *
                    static_cast<double>(b[ib + mm]);
    }
  }
}

template <typename T, int B>
inline void row_dot3_span(const T* MINIPOP_RESTRICT rr,
                          const T* MINIPOP_RESTRICT pr,
                          const T* MINIPOP_RESTRICT zr, bool with_norm,
                          double* MINIPOP_RESTRICT s0,
                          double* MINIPOP_RESTRICT s1,
                          double* MINIPOP_RESTRICT s2, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    for (int m = 0; m < w; ++m) {
      s0[m] += static_cast<double>(rr[ib + m]) *
               static_cast<double>(pr[ib + m]);
      s1[m] += static_cast<double>(zr[ib + m]) *
               static_cast<double>(pr[ib + m]);
      if (with_norm)
        s2[m] += static_cast<double>(rr[ib + m]) *
                 static_cast<double>(rr[ib + m]);
    }
  }
}

template <typename T, int B>
inline void row_sum_span(const T* MINIPOP_RESTRICT a,
                         double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) sum += static_cast<double>(a[i]);
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += static_cast<double>(a[ib + mm]);
    }
  }
}

template <typename T, int B>
inline void row_dot_shared_span(const double* MINIPOP_RESTRICT cr,
                                const T* MINIPOP_RESTRICT ar,
                                double* MINIPOP_RESTRICT sums, int nx,
                                int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i)
      sum += cr[i] * static_cast<double>(ar[i]);
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      const double cv = cr[i];
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += cv * static_cast<double>(ar[ib + mm]);
    }
  }
}


// ---------------------------------------------------------------------
// Span core: block drivers over per-row ocean-span lists, templated on
// the width B (B = 1 the width-1 code path, B = 0 the dynamic width).
// ---------------------------------------------------------------------

namespace spancore {

template <typename T, int B>
void apply9(const Stencil9T<T>& c, const int* ro, const Span* sp, int nb,
            int ny, const T* x, std::ptrdiff_t xs, T* y,
            std::ptrdiff_t ys) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    T* yr = y + j * ys;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_apply9<T, B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci,
                       c.cs + ci, c.cne + ci, c.cnw + ci, c.cse + ci,
                       c.csw + ci, x0 - xs + ib, x0 + ib, x0 + xs + ib,
                       yr + ib, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void residual9(const Stencil9T<T>& c, const int* ro, const Span* sp,
               int nb, int ny, const T* b, std::ptrdiff_t bs, const T* x,
               std::ptrdiff_t xs, T* r, std::ptrdiff_t rs) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    const T* br = b + j * bs;
    T* rr = r + j * rs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_residual9<T, B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci,
                          c.cs + ci, c.cne + ci, c.cnw + ci, c.cse + ci,
                          c.csw + ci, br + ib, x0 - xs + ib, x0 + ib,
                          x0 + xs + ib, rr + ib, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void residual_norm2_9(const Stencil9T<T>& c, const int* ro, const Span* sp,
                      int nb, int ny, const T* b, std::ptrdiff_t bs,
                      const T* x, std::ptrdiff_t xs, T* r,
                      std::ptrdiff_t rs, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    const T* br = b + j * bs;
    T* rr = r + j * rs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_residual_norm2_span<T, B>(
          c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci, c.cs + ci, c.cne + ci,
          c.cnw + ci, c.cse + ci, c.csw + ci, br + ib, x0 - xs + ib,
          x0 + ib, x0 + xs + ib, rr + ib, sums, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void dot(const int* ro, const Span* sp, int nb, int ny, const T* a,
         std::ptrdiff_t as, const T* b, std::ptrdiff_t bs, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const T* ar = a + j * as;
    const T* br = b + j * bs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_dot_span<T, B>(ar + ib, br + ib, sums, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void dot3(const int* ro, const Span* sp, int nb, int ny, const T* r,
          std::ptrdiff_t rs, const T* rp, std::ptrdiff_t ps, const T* z,
          std::ptrdiff_t zs, bool with_norm, double* out) {
  if constexpr (B == 1) {
    // Width-1 fast path mirrors core::dot3: register accumulators and
    // the with_norm branch hoisted out of the sweep.
    double s0 = out[0], s1 = out[1], s2 = out[2];
    if (with_norm) {
      for (int j = 0; j < ny; ++j) {
        for (int s = ro[j]; s < ro[j + 1]; ++s) {
          const T* MINIPOP_RESTRICT rr = r + j * rs + sp[s].i0;
          const T* MINIPOP_RESTRICT pr = rp + j * ps + sp[s].i0;
          const T* MINIPOP_RESTRICT zr = z + j * zs + sp[s].i0;
          const int len = sp[s].len;
          for (int i = 0; i < len; ++i) {
            s0 += static_cast<double>(rr[i]) * static_cast<double>(pr[i]);
            s1 += static_cast<double>(zr[i]) * static_cast<double>(pr[i]);
            s2 += static_cast<double>(rr[i]) * static_cast<double>(rr[i]);
          }
        }
      }
    } else {
      for (int j = 0; j < ny; ++j) {
        for (int s = ro[j]; s < ro[j + 1]; ++s) {
          const T* MINIPOP_RESTRICT rr = r + j * rs + sp[s].i0;
          const T* MINIPOP_RESTRICT pr = rp + j * ps + sp[s].i0;
          const T* MINIPOP_RESTRICT zr = z + j * zs + sp[s].i0;
          const int len = sp[s].len;
          for (int i = 0; i < len; ++i) {
            s0 += static_cast<double>(rr[i]) * static_cast<double>(pr[i]);
            s1 += static_cast<double>(zr[i]) * static_cast<double>(pr[i]);
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
        row_dot3_span<T, B>(r + j * rs + ib, rp + j * ps + ib,
                            z + j * zs + ib, with_norm, s0, s1, s2,
                            sp[s].len, nb);
      }
  }
}

template <typename T, int B>
void sum(const int* ro, const Span* sp, int nb, int ny, const T* a,
         std::ptrdiff_t as, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const T* ar = a + j * as;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_sum_span<T, B>(ar + ib, sums, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void dot_shared(const int* ro, const Span* sp, int nb, int ny,
                const double* c, std::ptrdiff_t cs, const T* a,
                std::ptrdiff_t as, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const double* cr = c + j * cs;
    const T* ar = a + j * as;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_dot_shared_span<T, B>(cr + sp[s].i0, ar + ib, sums, sp[s].len,
                                nb);
    }
  }
}

template <typename T, int B>
void lincomb(const int* ro, const Span* sp, int nb, int ny, const T* a,
             const T* x, std::ptrdiff_t xs, const T* b, T* y,
             std::ptrdiff_t ys, const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_lincomb<T, B>(a, x + j * xs + ib, b, y + j * ys + ib, active,
                        sp[s].len, nb);
    }
}

template <typename T, int B>
void axpy(const int* ro, const Span* sp, int nb, int ny, const T* a,
          const T* x, std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_axpy<T, B>(a, x + j * xs + ib, y + j * ys + ib, active,
                     sp[s].len, nb);
    }
}

template <typename T, int B>
void lincomb_axpy(const int* ro, const Span* sp, int nb, int ny, const T* a,
                  const T* x, std::ptrdiff_t xs, const T* b, T* y,
                  std::ptrdiff_t ys, const T* c, T* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_lincomb_axpy<T, B>(a, x + j * xs + ib, b, y + j * ys + ib, c,
                             z + j * zs + ib, active, sp[s].len, nb);
    }
}

template <typename T, int B>
void scale(const int* ro, const Span* sp, int nb, int ny, const T* a, T* x,
           std::ptrdiff_t xs, const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_scale<T, B>(a, x + j * xs + ib, active, sp[s].len, nb);
    }
}

/// Zero every gap (land run) of row j of `x`; the spans themselves are
/// left untouched. Shared by the three gap-zeroing span kernels.
template <typename T, int B>
inline void zero_gaps(const int* ro, const Span* sp, int nb, int nx, int j,
                      T* xr) {
  const int w = eff_width<B>(nb);
  int prev = 0;
  for (int s = ro[j]; s < ro[j + 1]; ++s) {
    if (sp[s].i0 > prev)
      row_fill<T, B>(T(0), xr + static_cast<std::ptrdiff_t>(prev) * w,
                     sp[s].i0 - prev, nb);
    prev = sp[s].i0 + sp[s].len;
  }
  if (nx > prev)
    row_fill<T, B>(T(0), xr + static_cast<std::ptrdiff_t>(prev) * w,
                   nx - prev, nb);
}

template <typename T, int B>
void mask_zero(const int* ro, const Span* sp, int nb, int nx, int ny, T* x,
               std::ptrdiff_t xs) {
  // Strictly cheaper than the masked kernel: ocean cells keep their
  // value by NOT being rewritten (bit-identical to the masked rewrite).
  for (int j = 0; j < ny; ++j)
    zero_gaps<T, B>(ro, sp, nb, nx, j, x + j * xs);
}

template <typename T, int B>
void diag_apply(const T* inv, std::ptrdiff_t is, const int* ro,
                const Span* sp, int nb, int nx, int ny, const T* in,
                std::ptrdiff_t ins, T* out, std::ptrdiff_t outs) {
  // inv is 0 on land, so the masked kernel writes exact zeros in the
  // gaps — zero_gaps reproduces them without loading inv or in there.
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    T* orow = out + j * outs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_diag_apply<T, B>(inv + j * is + sp[s].i0, in + j * ins + ib,
                           orow + ib, sp[s].len, nb);
    }
    zero_gaps<T, B>(ro, sp, nb, nx, j, orow);
  }
}

template <typename T, int B>
void masked_copy(const int* ro, const Span* sp, int nb, int nx, int ny,
                 const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const T* irow = in + j * ins;
    T* orow = out + j * outs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      std::memcpy(orow + ib, irow + ib,
                  static_cast<std::size_t>(sp[s].len) * w * sizeof(T));
    }
    zero_gaps<T, B>(ro, sp, nb, nx, j, orow);
  }
}


template <int B>
void axpy_promoted(int nb, int nx, int ny, const double* a, const float* x,
                   std::ptrdiff_t xs, double* y, std::ptrdiff_t ys,
                   const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_axpy_promoted<B>(a, x + j * xs, y + j * ys, active, nx, nb);
}

}  // namespace spancore
}  // namespace

// ---------------------------------------------------------------------
// Public entry points: nb == 1 runs the width-1 (B = 1) instantiation,
// every other width the dynamic one.
// ---------------------------------------------------------------------

template <typename T>
void apply9(const Stencil9T<T>& c, const int* row_offset, const Span* spans,
            int nb, int ny, const T* x, std::ptrdiff_t xs, T* y,
            std::ptrdiff_t ys) {
  if (nb == 1)
    return spancore::apply9<T, 1>(c, row_offset, spans, 1, ny, x, xs, y,
                                  ys);
  spancore::apply9<T, 0>(c, row_offset, spans, nb, ny, x, xs, y, ys);
}

template <typename T>
void residual9(const Stencil9T<T>& c, const int* row_offset,
               const Span* spans, int nb, int ny, const T* b,
               std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs, T* r,
               std::ptrdiff_t rs) {
  if (nb == 1)
    return spancore::residual9<T, 1>(c, row_offset, spans, 1, ny, b, bs, x,
                                     xs, r, rs);
  spancore::residual9<T, 0>(c, row_offset, spans, nb, ny, b, bs, x, xs, r,
                            rs);
}

template <typename T>
void residual_norm2_9(const Stencil9T<T>& c, const int* row_offset,
                      const Span* spans, int nb, int ny, const T* b,
                      std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                      T* r, std::ptrdiff_t rs, double* sums) {
  if (nb == 1)
    return spancore::residual_norm2_9<T, 1>(c, row_offset, spans, 1, ny, b,
                                            bs, x, xs, r, rs, sums);
  spancore::residual_norm2_9<T, 0>(c, row_offset, spans, nb, ny, b, bs, x,
                                   xs, r, rs, sums);
}

template <typename T>
void dot(const int* row_offset, const Span* spans, int nb, int ny,
         const T* a, std::ptrdiff_t as, const T* b, std::ptrdiff_t bs,
         double* sums) {
  if (nb == 1)
    return spancore::dot<T, 1>(row_offset, spans, 1, ny, a, as, b, bs,
                               sums);
  spancore::dot<T, 0>(row_offset, spans, nb, ny, a, as, b, bs, sums);
}

template <typename T>
void dot3(const int* row_offset, const Span* spans, int nb, int ny,
          const T* r, std::ptrdiff_t rs, const T* rp, std::ptrdiff_t ps,
          const T* z, std::ptrdiff_t zs, bool with_norm, double* out) {
  if (nb == 1)
    return spancore::dot3<T, 1>(row_offset, spans, 1, ny, r, rs, rp, ps, z,
                                zs, with_norm, out);
  spancore::dot3<T, 0>(row_offset, spans, nb, ny, r, rs, rp, ps, z, zs,
                       with_norm, out);
}

template <typename T>
void sum(const int* row_offset, const Span* spans, int nb, int ny,
         const T* a, std::ptrdiff_t as, double* sums) {
  if (nb == 1)
    return spancore::sum<T, 1>(row_offset, spans, 1, ny, a, as, sums);
  spancore::sum<T, 0>(row_offset, spans, nb, ny, a, as, sums);
}

template <typename T>
void dot_shared(const int* row_offset, const Span* spans, int nb, int ny,
                const double* c, std::ptrdiff_t cs, const T* a,
                std::ptrdiff_t as, double* sums) {
  if (nb == 1)
    return spancore::dot_shared<T, 1>(row_offset, spans, 1, ny, c, cs, a,
                                      as, sums);
  spancore::dot_shared<T, 0>(row_offset, spans, nb, ny, c, cs, a, as,
                             sums);
}

template <typename T>
void lincomb(const int* row_offset, const Span* spans, int nb, int ny,
             const T* a, const T* x, std::ptrdiff_t xs, const T* b, T* y,
             std::ptrdiff_t ys, const unsigned char* active) {
  if (nb == 1)
    return spancore::lincomb<T, 1>(row_offset, spans, 1, ny, a, x, xs, b,
                                   y, ys, active);
  spancore::lincomb<T, 0>(row_offset, spans, nb, ny, a, x, xs, b, y, ys,
                          active);
}

template <typename T>
void axpy(const int* row_offset, const Span* spans, int nb, int ny,
          const T* a, const T* x, std::ptrdiff_t xs, T* y,
          std::ptrdiff_t ys, const unsigned char* active) {
  if (nb == 1)
    return spancore::axpy<T, 1>(row_offset, spans, 1, ny, a, x, xs, y, ys,
                                active);
  spancore::axpy<T, 0>(row_offset, spans, nb, ny, a, x, xs, y, ys, active);
}

template <typename T>
void lincomb_axpy(const int* row_offset, const Span* spans, int nb, int ny,
                  const T* a, const T* x, std::ptrdiff_t xs, const T* b,
                  T* y, std::ptrdiff_t ys, const T* c, T* z,
                  std::ptrdiff_t zs, const unsigned char* active) {
  if (nb == 1)
    return spancore::lincomb_axpy<T, 1>(row_offset, spans, 1, ny, a, x, xs,
                                        b, y, ys, c, z, zs, active);
  spancore::lincomb_axpy<T, 0>(row_offset, spans, nb, ny, a, x, xs, b, y,
                               ys, c, z, zs, active);
}

template <typename T>
void scale(const int* row_offset, const Span* spans, int nb, int ny,
           const T* a, T* x, std::ptrdiff_t xs, const unsigned char* active) {
  if (nb == 1)
    return spancore::scale<T, 1>(row_offset, spans, 1, ny, a, x, xs,
                                 active);
  spancore::scale<T, 0>(row_offset, spans, nb, ny, a, x, xs, active);
}

template <typename T>
void mask_zero(const int* row_offset, const Span* spans, int nb, int nx,
               int ny, T* x, std::ptrdiff_t xs) {
  if (nb == 1)
    return spancore::mask_zero<T, 1>(row_offset, spans, 1, nx, ny, x, xs);
  spancore::mask_zero<T, 0>(row_offset, spans, nb, nx, ny, x, xs);
}

template <typename T>
void diag_apply(const T* inv, std::ptrdiff_t is, const int* row_offset,
                const Span* spans, int nb, int nx, int ny, const T* in,
                std::ptrdiff_t ins, T* out, std::ptrdiff_t outs) {
  if (nb == 1)
    return spancore::diag_apply<T, 1>(inv, is, row_offset, spans, 1, nx,
                                      ny, in, ins, out, outs);
  spancore::diag_apply<T, 0>(inv, is, row_offset, spans, nb, nx, ny, in,
                             ins, out, outs);
}

template <typename T>
void masked_copy(const int* row_offset, const Span* spans, int nb, int nx,
                 int ny, const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs) {
  if (nb == 1)
    return spancore::masked_copy<T, 1>(row_offset, spans, 1, nx, ny, in,
                                       ins, out, outs);
  spancore::masked_copy<T, 0>(row_offset, spans, nb, nx, ny, in, ins, out,
                              outs);
}

template <typename T>
void copy(int nb, int nx, int ny, const T* x, std::ptrdiff_t xs, T* y,
          std::ptrdiff_t ys) {
  const std::size_t row = static_cast<std::size_t>(nx) * nb * sizeof(T);
  for (int j = 0; j < ny; ++j) std::memcpy(y + j * ys, x + j * xs, row);
}

template <typename T>
void fill(int nb, int nx, int ny, T v, T* x, std::ptrdiff_t xs) {
  for (int j = 0; j < ny; ++j) row_fill<T, 0>(v, x + j * xs, nx, nb);
}

template <typename D, typename S>
void convert(int nx, int ny, const S* x, std::ptrdiff_t xs, D* y,
             std::ptrdiff_t ys) {
  for (int j = 0; j < ny; ++j) row_convert(x + j * xs, y + j * ys, nx);
}

void axpy_promoted(int nb, int nx, int ny, const double* a, const float* x,
                   std::ptrdiff_t xs, double* y, std::ptrdiff_t ys,
                   const unsigned char* active) {
  if (nb == 1)
    return spancore::axpy_promoted<1>(1, nx, ny, a, x, xs, y, ys, active);
  spancore::axpy_promoted<0>(nb, nx, ny, a, x, xs, y, ys, active);
}

#define MINIPOP_KERNELS_INSTANTIATE(T)                                     \
  template void apply9<T>(const Stencil9T<T>&, const int*, const Span*,    \
                          int, int, const T*, std::ptrdiff_t, T*,          \
                          std::ptrdiff_t);                                 \
  template void residual9<T>(const Stencil9T<T>&, const int*, const Span*, \
                             int, int, const T*, std::ptrdiff_t, const T*, \
                             std::ptrdiff_t, T*, std::ptrdiff_t);          \
  template void residual_norm2_9<T>(                                       \
      const Stencil9T<T>&, const int*, const Span*, int, int, const T*,    \
      std::ptrdiff_t, const T*, std::ptrdiff_t, T*, std::ptrdiff_t,        \
      double*);                                                            \
  template void dot<T>(const int*, const Span*, int, int, const T*,        \
                       std::ptrdiff_t, const T*, std::ptrdiff_t, double*); \
  template void dot3<T>(const int*, const Span*, int, int, const T*,       \
                        std::ptrdiff_t, const T*, std::ptrdiff_t,          \
                        const T*, std::ptrdiff_t, bool, double*);          \
  template void sum<T>(const int*, const Span*, int, int, const T*,        \
                       std::ptrdiff_t, double*);                           \
  template void dot_shared<T>(const int*, const Span*, int, int,           \
                              const double*, std::ptrdiff_t, const T*,     \
                              std::ptrdiff_t, double*);                    \
  template void lincomb<T>(const int*, const Span*, int, int, const T*,    \
                           const T*, std::ptrdiff_t, const T*, T*,         \
                           std::ptrdiff_t, const unsigned char*);          \
  template void axpy<T>(const int*, const Span*, int, int, const T*,       \
                        const T*, std::ptrdiff_t, T*, std::ptrdiff_t,      \
                        const unsigned char*);                             \
  template void lincomb_axpy<T>(                                           \
      const int*, const Span*, int, int, const T*, const T*,               \
      std::ptrdiff_t, const T*, T*, std::ptrdiff_t, const T*, T*,          \
      std::ptrdiff_t, const unsigned char*);                               \
  template void scale<T>(const int*, const Span*, int, int, const T*, T*,  \
                         std::ptrdiff_t, const unsigned char*);            \
  template void mask_zero<T>(const int*, const Span*, int, int, int, T*,   \
                             std::ptrdiff_t);                              \
  template void diag_apply<T>(const T*, std::ptrdiff_t, const int*,        \
                              const Span*, int, int, int, const T*,        \
                              std::ptrdiff_t, T*, std::ptrdiff_t);         \
  template void masked_copy<T>(const int*, const Span*, int, int, int,     \
                               const T*, std::ptrdiff_t, T*,               \
                               std::ptrdiff_t);                            \
  template void copy<T>(int, int, int, const T*, std::ptrdiff_t, T*,       \
                        std::ptrdiff_t);                                   \
  template void fill<T>(int, int, int, T, T*, std::ptrdiff_t);

MINIPOP_KERNELS_INSTANTIATE(double)
MINIPOP_KERNELS_INSTANTIATE(float)
#undef MINIPOP_KERNELS_INSTANTIATE

template void convert<float, double>(int, int, const double*,
                                     std::ptrdiff_t, float*, std::ptrdiff_t);
template void convert<double, float>(int, int, const float*, std::ptrdiff_t,
                                     double*, std::ptrdiff_t);

}  // namespace minipop::solver::kernels
