#include "src/solver/comm_avoid.hpp"

#include <type_traits>

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

/// Value of a global coefficient plane at (gi, gj): periodic wrap in x,
/// identically zero outside the domain (the stencil has no coupling
/// across the domain edge, so a zero ghost coefficient reproduces the
/// physical boundary exactly — and makes out-of-domain ghost arithmetic
/// inert: 0 * anything contributes +/-0 to every sum).
double global_at(const util::Field& g, int gi, int gj, bool periodic_x) {
  if (gj < 0 || gj >= g.ny()) return 0.0;
  if (periodic_x) {
    gi %= g.nx();
    if (gi < 0) gi += g.nx();
  } else if (gi < 0 || gi >= g.nx()) {
    return 0.0;
  }
  return g(gi, gj);
}

unsigned char mask_at(const util::MaskArray& m, int gi, int gj,
                      bool periodic_x) {
  if (gj < 0 || gj >= m.ny()) return 0;
  if (periodic_x) {
    gi %= m.nx();
    if (gi < 0) gi += m.nx();
  } else if (gi < 0 || gi >= m.nx()) {
    return 0;
  }
  return m(gi, gj);
}

/// Pointer to the (-e, -e) corner of the extension-e region inside a
/// width-w padded plane (row pitch = plane.nx()).
template <typename T>
const T* plane_at(const util::Array2D<T>& p, int w, int e) {
  return p.data() + static_cast<std::ptrdiff_t>(w - e) * p.nx() + (w - e);
}

/// Pointer to member 0 of the (-e, -e) corner cell of the extension-e
/// region of local block lb (halo >= e; member-interleaved columns).
template <typename T>
const T* field_at(const comm::DistFieldBatchT<T>& f, int lb, int e) {
  const util::Array2D<T>& a = f.data(lb);
  return a.data() +
         static_cast<std::ptrdiff_t>(f.halo() - e) * a.nx() +
         static_cast<std::ptrdiff_t>(f.halo() - e) * f.nb();
}
template <typename T>
T* field_at(comm::DistFieldBatchT<T>& f, int lb, int e) {
  util::Array2D<T>& a = f.data(lb);
  return a.data() +
         static_cast<std::ptrdiff_t>(f.halo() - e) * a.nx() +
         static_cast<std::ptrdiff_t>(f.halo() - e) * f.nb();
}

/// Stencil view over the extended coefficient planes at extension e
/// (order matches grid::Dir, the layout Stencil9T documents).
template <typename T>
kernels::Stencil9T<T> stencil_at(
    const std::array<util::Array2D<T>, grid::kNumDirs>& c, int w, int e) {
  return {plane_at(c[0], w, e), plane_at(c[1], w, e), plane_at(c[2], w, e),
          plane_at(c[3], w, e), plane_at(c[4], w, e), plane_at(c[5], w, e),
          plane_at(c[6], w, e), plane_at(c[7], w, e), plane_at(c[8], w, e),
          c[0].nx()};
}

}  // namespace

CommAvoidEngine::CommAvoidEngine(const DistOperator& op, int width)
    : op_(&op), decomp_(&op.decomposition()), width_(width) {
  MINIPOP_REQUIRE(width >= 1 && width <= decomp_->max_halo_width(),
                  "comm-avoid ghost width " << width << " outside [1, "
                                            << decomp_->max_halo_width()
                                            << "]");
  const grid::NinePointStencil& st = op.stencil();
  const bool px = decomp_->periodic_x();
  const auto& blocks = decomp_->blocks_of_rank(op.rank());
  planes_.reserve(blocks.size());
  for (int id : blocks) {
    const auto& b = decomp_->block(id);
    const int exnx = b.nx + 2 * width;
    const int exny = b.ny + 2 * width;
    BlockPlanes p;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const util::Field& g = st.coeff(static_cast<grid::Dir>(d));
      util::Field c(exnx, exny, 0.0);
      for (int j = 0; j < exny; ++j)
        for (int i = 0; i < exnx; ++i)
          c(i, j) = global_at(g, b.i0 + i - width, b.j0 + j - width, px);
      p.coeff[d] = std::move(c);
    }
    util::MaskArray mask(exnx, exny, 0);
    for (int j = 0; j < exny; ++j)
      for (int i = 0; i < exnx; ++i)
        mask(i, j) =
            mask_at(st.mask(), b.i0 + i - width, b.j0 + j - width, px);
    // The diagonal preconditioner's exact expression, extended: ghost
    // cells divide the SAME double diagonal value the owning rank
    // divides, so the quotients are bit-equal.
    const util::Field& diag = p.coeff[static_cast<int>(grid::Dir::kCenter)];
    p.inv_diag = util::Field(exnx, exny, 0.0);
    for (int j = 0; j < exny; ++j)
      for (int i = 0; i < exnx; ++i)
        if (mask(i, j)) p.inv_diag(i, j) = 1.0 / diag(i, j);
    // Span plans for every extension the engine can sweep (e = 0 is
    // the plain interior; e = width is the full padded plane). Built
    // from the extended mask so ghost-rim land is skipped exactly like
    // interior land.
    std::vector<BlockSpans> per_e;
    per_e.reserve(width + 1);
    for (int e = 0; e <= width; ++e) {
      const int nxe = b.nx + 2 * e;
      const int nye = b.ny + 2 * e;
      BlockSpans bs(plane_at(mask, width, e), mask.nx(), nxe, nye);
#if MINIPOP_BOUNDS_CHECK
      bs.validate(plane_at(mask, width, e), mask.nx());
#endif
      per_e.push_back(std::move(bs));
    }
    ext_spans_.push_back(std::move(per_e));
    planes_.push_back(std::move(p));
  }
  ext_active_.assign(static_cast<std::size_t>(width) + 1, 0);
  for (int e = 0; e <= width; ++e)
    for (const auto& per_e : ext_spans_)
      ext_active_[e] +=
          static_cast<std::uint64_t>(per_e[e].active_points());
}

void CommAvoidEngine::ensure_planes32() const {
  if (!planes32_.empty()) return;
  planes32_.reserve(planes_.size());
  for (const BlockPlanes& p : planes_) {
    BlockPlanes32 q;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      util::Array2D<float> c(p.coeff[d].nx(), p.coeff[d].ny());
      for (int j = 0; j < c.ny(); ++j)
        for (int i = 0; i < c.nx(); ++i)
          c(i, j) = static_cast<float>(p.coeff[d](i, j));
      q.coeff[d] = std::move(c);
    }
    q.inv_diag =
        util::Array2D<float>(p.inv_diag.nx(), p.inv_diag.ny());
    for (int j = 0; j < q.inv_diag.ny(); ++j)
      for (int i = 0; i < q.inv_diag.nx(); ++i)
        q.inv_diag(i, j) = static_cast<float>(p.inv_diag(i, j));
    planes32_.push_back(std::move(q));
  }
}

void CommAvoidEngine::count(comm::Communicator& comm, int e, int nb,
                            std::uint64_t per_point) const {
  if (per_point == 0) return;
  std::uint64_t ext = 0, interior = 0;
  for (int id : decomp_->blocks_of_rank(op_->rank())) {
    const auto& b = decomp_->block(id);
    ext += static_cast<std::uint64_t>(b.nx + 2 * e) * (b.ny + 2 * e);
    interior += static_cast<std::uint64_t>(b.nx) * b.ny;
  }
  comm.costs().add_flops(ext * nb * per_point);
  comm.costs().add_redundant_flops((ext - interior) * nb * per_point);
  comm.costs().add_points(ext_active_[e] * nb, ext * nb);
}

template <typename T>
void CommAvoidEngine::precond_batch(comm::Communicator& comm,
                                    CaPrecond kind,
                                    const comm::DistFieldBatchT<T>& r,
                                    comm::DistFieldBatchT<T>& z,
                                    int e) const {
  MINIPOP_REQUIRE(e >= 0 && e <= width_ && e <= r.halo(),
                  "precond extension " << e);
  if constexpr (std::is_same_v<T, float>) ensure_planes32();
  const int nb = r.nb();
  for (int lb = 0; lb < r.num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
    const int nxe = info.nx + 2 * e;
    const int nye = info.ny + 2 * e;
    const BlockSpans& sp = ext_spans_[lb][e];
    if (kind == CaPrecond::kDiagonal) {
      const auto& inv = [&]() -> const auto& {
        if constexpr (std::is_same_v<T, float>)
          return planes32_[lb].inv_diag;
        else
          return planes_[lb].inv_diag;
      }();
      kernels::diag_apply(plane_at(inv, width_, e), inv.nx(),
                          sp.row_offset(), sp.spans(), nb, nxe, nye,
                          field_at(r, lb, e), r.stride(lb),
                          field_at(z, lb, e), z.stride(lb));
    } else {
      kernels::masked_copy(sp.row_offset(), sp.spans(), nb, nxe, nye,
                           field_at(r, lb, e), r.stride(lb),
                           field_at(z, lb, e), z.stride(lb));
    }
  }
  // Flop convention matches the baseline preconditioners: diagonal is
  // 1 op/point, identity is free.
  count(comm, e, nb, kind == CaPrecond::kDiagonal ? 1 : 0);
}

template <typename T>
void CommAvoidEngine::update_batch(comm::Communicator& comm, const T* a,
                                   const comm::DistFieldBatchT<T>& z,
                                   const T* b,
                                   comm::DistFieldBatchT<T>& dx,
                                   const T* c, comm::DistFieldBatchT<T>& x,
                                   const unsigned char* active, int n_act,
                                   int e) const {
  MINIPOP_REQUIRE(e >= 0 && e <= width_ && e <= z.halo(),
                  "update extension " << e);
  for (int lb = 0; lb < z.num_local_blocks(); ++lb) {
    const BlockSpans& sp = ext_spans_[lb][e];
    kernels::lincomb_axpy(sp.row_offset(), sp.spans(), z.nb(),
                          z.info(lb).ny + 2 * e, a, field_at(z, lb, e),
                          z.stride(lb), b, field_at(dx, lb, e),
                          dx.stride(lb), c, field_at(x, lb, e),
                          x.stride(lb), active);
  }
  count(comm, e, n_act, 4);
}

template <typename T>
void CommAvoidEngine::residual_batch(comm::Communicator& comm,
                                     const comm::DistFieldBatchT<T>& b,
                                     const comm::DistFieldBatchT<T>& x,
                                     comm::DistFieldBatchT<T>& r,
                                     int e) const {
  MINIPOP_REQUIRE(e >= 0 && e <= width_ && e + 1 <= x.halo(),
                  "residual extension " << e);
  if constexpr (std::is_same_v<T, float>) ensure_planes32();
  const int nb = b.nb();
  for (int lb = 0; lb < b.num_local_blocks(); ++lb) {
    const auto& info = b.info(lb);
    const auto c9 = [&] {
      if constexpr (std::is_same_v<T, float>)
        return stencil_at(planes32_[lb].coeff, width_, e);
      else
        return stencil_at(planes_[lb].coeff, width_, e);
    }();
    const BlockSpans& sp = ext_spans_[lb][e];
    kernels::residual9(c9, sp.row_offset(), sp.spans(), nb, info.ny + 2 * e,
                       field_at(b, lb, e), b.stride(lb), field_at(x, lb, e),
                       x.stride(lb), field_at(r, lb, e), r.stride(lb));
  }
  count(comm, e, nb, 10);
}

#define MINIPOP_COMM_AVOID_INSTANTIATE(T)                                  \
  template void CommAvoidEngine::precond_batch<T>(                         \
      comm::Communicator&, CaPrecond, const comm::DistFieldBatchT<T>&,     \
      comm::DistFieldBatchT<T>&, int) const;                               \
  template void CommAvoidEngine::update_batch<T>(                          \
      comm::Communicator&, const T*, const comm::DistFieldBatchT<T>&,      \
      const T*, comm::DistFieldBatchT<T>&, const T*,                       \
      comm::DistFieldBatchT<T>&, const unsigned char*, int, int) const;    \
  template void CommAvoidEngine::residual_batch<T>(                        \
      comm::Communicator&, const comm::DistFieldBatchT<T>&,                \
      const comm::DistFieldBatchT<T>&, comm::DistFieldBatchT<T>&, int)     \
      const;
MINIPOP_COMM_AVOID_INSTANTIATE(double)
MINIPOP_COMM_AVOID_INSTANTIATE(float)
#undef MINIPOP_COMM_AVOID_INSTANTIATE

}  // namespace minipop::solver
