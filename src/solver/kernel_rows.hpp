// Internal to the kernel layer: the per-row helpers and point macros
// that the production span kernels (kernels.cpp) and the masked
// reference family (kernels_masked.cpp) share, so the two families run
// ONE copy of every per-cell expression. Include only from those two
// translation units.
//
// Every helper takes restrict-qualified PARAMETERS: GCC honors restrict
// reliably on parameters (and keeps the no-alias guarantee when the
// helper inlines back into the caller's j loop), but largely ignores it
// on local pointer variables — with locals the stencil loops stay
// scalar.
//
// Each helper is templated `<typename T, int B>` (see kernels.hpp for
// the width semantics). The nine-point expression keeps the exact term
// order of the original scalar code (center, E, W, N, S, NE, NW, SE,
// SW); the nine coefficients of a cell are hoisted into scalars once and
// reused across the member loop. At B = 1 the member loop collapses
// (w = 1, m = 0) and the expression is term-for-term MINIPOP_POINT9 —
// hoisting a coefficient load into a named scalar does not change its
// value, so the B = 1 instantiations are bit-identical to the scalar
// loops.
#pragma once

#include <cstddef>

#include "src/solver/kernels.hpp"

/// The scalar nine-point row expression over the south/center/north
/// interior rows xm/x0/xp — the exact term order of the original scalar
/// code; it defines the result bit pattern. A macro, not a helper
/// function: GCC's restrict tracking does not survive passing the
/// pointers through another call (even a fully inlined one), and the
/// row loops then refuse to vectorize.
#define MINIPOP_POINT9(i)                                              \
  (c0[i] * x0[i] + ce[i] * x0[(i) + 1] + cw[i] * x0[(i)-1] +           \
   cn[i] * xp[i] + cs[i] * xm[i] + cne[i] * xp[(i) + 1] +              \
   cnw[i] * xp[(i)-1] + cse[i] * xm[(i) + 1] + csw[i] * xm[(i)-1])

/// The same expression for member m of cell i in an interleaved row
/// (ib = i*w): east/west neighbors sit a full member group (w) away.
/// Identical term order to MINIPOP_POINT9, with the nine coefficients
/// pre-hoisted into the scalars of MINIPOP_LOAD9 (hoisting a load into
/// a named scalar does not change its value, so the two expressions are
/// bit-identical for any member).
#define MINIPOP_POINT9B(ib, m, w)                                        \
  (w0 * x0[(ib) + (m)] + we * x0[(ib) + (w) + (m)] +                     \
   ww * x0[(ib) - (w) + (m)] + wn * xp[(ib) + (m)] +                     \
   ws * xm[(ib) + (m)] + wne * xp[(ib) + (w) + (m)] +                    \
   wnw * xp[(ib) - (w) + (m)] + wse * xm[(ib) + (w) + (m)] +             \
   wsw * xm[(ib) - (w) + (m)])

/// Hoists the nine coefficients of cell i into scalars; the member loop
/// then re-reads only field lanes.
#define MINIPOP_LOAD9(i)                                                 \
  const T w0 = c0[i], we = ce[i], ww = cw[i], wn = cn[i], ws = cs[i],    \
          wne = cne[i], wnw = cnw[i], wse = cse[i], wsw = csw[i]

namespace minipop::solver::kernels::detail {

/// Effective member width of a row: compile-time B when fixed, runtime
/// nb when B == 0 (the dynamic instantiation).
template <int B>
inline int eff_width(int nb) {
  return B > 0 ? B : nb;
}

// Each row helper below carries a `if constexpr (B == 1)` width-1 fast
// path that is the VERBATIM loop of the pre-unification scalar kernels:
// the generic member-loop body computes the same bits at w = 1, but its
// memory-resident accumulators and runtime `active`/coefficient-array
// indirections defeat GCC's reduction vectorizer, costing 1.2-2.5x on
// the scalar hot paths. The fast path keeps accumulators and
// coefficients in locals (registers) exactly as before; `active` is
// resolved once per row (it cannot change mid-row).

template <typename T, int B>
inline void row_apply9(const T* MINIPOP_RESTRICT c0,
                       const T* MINIPOP_RESTRICT ce,
                       const T* MINIPOP_RESTRICT cw,
                       const T* MINIPOP_RESTRICT cn,
                       const T* MINIPOP_RESTRICT cs,
                       const T* MINIPOP_RESTRICT cne,
                       const T* MINIPOP_RESTRICT cnw,
                       const T* MINIPOP_RESTRICT cse,
                       const T* MINIPOP_RESTRICT csw,
                       const T* MINIPOP_RESTRICT xm,
                       const T* MINIPOP_RESTRICT x0,
                       const T* MINIPOP_RESTRICT xp,
                       T* MINIPOP_RESTRICT y, int nx, int nb) {
  if constexpr (B == 1) {
    for (int i = 0; i < nx; ++i) y[i] = MINIPOP_POINT9(i);
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int m = 0; m < w; ++m) y[ib + m] = MINIPOP_POINT9B(ib, m, w);
    }
  }
}

template <typename T, int B>
inline void row_residual9(const T* MINIPOP_RESTRICT c0,
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
                          T* MINIPOP_RESTRICT r, int nx, int nb) {
  if constexpr (B == 1) {
    for (int i = 0; i < nx; ++i) r[i] = b[i] - MINIPOP_POINT9(i);
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int m = 0; m < w; ++m)
        r[ib + m] = b[ib + m] - MINIPOP_POINT9B(ib, m, w);
    }
  }
}

template <typename T, int B>
inline void row_lincomb(const T* MINIPOP_RESTRICT a,
                        const T* MINIPOP_RESTRICT x,
                        const T* MINIPOP_RESTRICT b, T* MINIPOP_RESTRICT y,
                        const unsigned char* MINIPOP_RESTRICT active,
                        int nx, int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0], bv = b[0];
    for (int i = 0; i < nx; ++i) y[i] = av * x[i] + bv * y[i];
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        y[ib + m] = a[m] * x[ib + m] + b[m] * y[ib + m];
      }
    }
  }
}

template <typename T, int B>
inline void row_axpy(const T* MINIPOP_RESTRICT a,
                     const T* MINIPOP_RESTRICT x, T* MINIPOP_RESTRICT y,
                     const unsigned char* MINIPOP_RESTRICT active, int nx,
                     int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0];
    for (int i = 0; i < nx; ++i) y[i] += av * x[i];
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        y[ib + m] += a[m] * x[ib + m];
      }
    }
  }
}

template <typename T, int B>
inline void row_lincomb_axpy(const T* MINIPOP_RESTRICT a,
                             const T* MINIPOP_RESTRICT x,
                             const T* MINIPOP_RESTRICT b,
                             T* MINIPOP_RESTRICT y,
                             const T* MINIPOP_RESTRICT c,
                             T* MINIPOP_RESTRICT z,
                             const unsigned char* MINIPOP_RESTRICT active,
                             int nx, int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0], bv = b[0], cv = c[0];
    for (int i = 0; i < nx; ++i) {
      const T v = av * x[i] + bv * y[i];
      y[i] = v;
      z[i] += cv * v;
    }
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        const T v = a[m] * x[ib + m] + b[m] * y[ib + m];
        y[ib + m] = v;
        z[ib + m] += c[m] * v;
      }
    }
  }
}

template <typename T, int B>
inline void row_scale(const T* MINIPOP_RESTRICT a, T* MINIPOP_RESTRICT x,
                      const unsigned char* MINIPOP_RESTRICT active, int nx,
                      int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0];
    for (int i = 0; i < nx; ++i) x[i] *= av;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        x[ib + m] *= a[m];
      }
    }
  }
}

template <typename T, int B>
inline void row_diag_apply(const T* MINIPOP_RESTRICT vr,
                           const T* MINIPOP_RESTRICT ir,
                           T* MINIPOP_RESTRICT orr, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const T v = vr[i];
    for (int m = 0; m < w; ++m) orr[ib + m] = v * ir[ib + m];
  }
}

}  // namespace minipop::solver::kernels::detail
