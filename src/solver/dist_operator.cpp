#include "src/solver/dist_operator.hpp"

#include <cstring>
#include <vector>

#include "src/fault/fault_injector.hpp"
#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"
#if MINIPOP_BOUNDS_CHECK
#include "src/solver/kernels_masked.hpp"
#endif

namespace minipop::solver {

namespace {

/// Raw-pointer view of one block's nine coefficient arrays.
kernels::Stencil9 stencil_view(
    const std::array<util::Field, grid::kNumDirs>& c) {
  return kernels::Stencil9{
      c[static_cast<int>(grid::Dir::kCenter)].data(),
      c[static_cast<int>(grid::Dir::kEast)].data(),
      c[static_cast<int>(grid::Dir::kWest)].data(),
      c[static_cast<int>(grid::Dir::kNorth)].data(),
      c[static_cast<int>(grid::Dir::kSouth)].data(),
      c[static_cast<int>(grid::Dir::kNorthEast)].data(),
      c[static_cast<int>(grid::Dir::kNorthWest)].data(),
      c[static_cast<int>(grid::Dir::kSouthEast)].data(),
      c[static_cast<int>(grid::Dir::kSouthWest)].data(),
      c[static_cast<int>(grid::Dir::kCenter)].nx()};
}

/// Sub-rectangle of a block interior: [i0, i0+ni) x [j0, j0+nj).
struct SubRect {
  int i0, j0, ni, nj;
};

/// Stencil view with all nine coefficient pointers advanced to (i0, j0).
kernels::Stencil9 shift(const kernels::Stencil9& s, int i0, int j0) {
  const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(j0) * s.stride + i0;
  return kernels::Stencil9{s.c0 + off,  s.ce + off,  s.cw + off,
                           s.cn + off,  s.cs + off,  s.cne + off,
                           s.cnw + off, s.cse + off, s.csw + off,
                           s.stride};
}

/// Field pointer advanced to member 0 of cell (i0, j0) of a sub-rect:
/// the member-interleaved layout widens cell columns by nb, the stencil
/// coefficients stay width 1. Works on const and mutable planes alike.
auto* at(auto* base, std::ptrdiff_t stride, int nb, const SubRect& r) {
  return base + static_cast<std::ptrdiff_t>(r.j0) * stride +
         static_cast<std::ptrdiff_t>(r.i0) * nb;
}

/// Halo-independent interior of an nx x ny block: the 9-point stencil
/// reads only the ±1 ring, so cells at least one in from every edge
/// never touch the halo. False when the block is too thin to have one
/// (then the whole block is rim).
bool interior_rect(int nx, int ny, SubRect* r) {
  if (nx <= 2 || ny <= 2) return false;
  *r = {1, 1, nx - 2, ny - 2};
  return true;
}

/// Complement of interior_rect: 1-wide strips along the four edges (or
/// the whole block when there is no interior).
int rim_rects(int nx, int ny, SubRect out[4]) {
  if (nx <= 2 || ny <= 2) {
    out[0] = {0, 0, nx, ny};
    return 1;
  }
  out[0] = {0, 0, nx, 1};
  out[1] = {0, ny - 1, nx, 1};
  out[2] = {0, 1, 1, ny - 2};
  out[3] = {nx - 1, 1, 1, ny - 2};
  return 4;
}

/// Offer each block interior of a sweep's freshly written output to the
/// installed FaultInjector. Armed whenever the working batch is one
/// member wide — a single solve, or a wider batch that retirement has
/// compacted down to one survivor — because the hook addresses one
/// scalar plane. A member of a wider working batch that diverges
/// recovers through the per-member sub-batches of the resilient
/// decorator (DESIGN.md §11). Compiles to nothing when MINIPOP_FAULTS is
/// off.
void offer_interiors(int rank, comm::DistFieldBatch& v,
                     const std::vector<util::MaskArray>& masks) {
#if MINIPOP_FAULTS
  if (v.nb() != 1) return;
  for (int lb = 0; lb < v.num_local_blocks(); ++lb) {
    const auto& info = v.info(lb);
    fault::hook_solver_vector(rank, v.interior(lb), v.stride(lb), info.nx,
                              info.ny, masks[lb].data(), masks[lb].nx());
  }
#else
  (void)rank;
  (void)v;
  (void)masks;
#endif
}

#if MINIPOP_BOUNDS_CHECK
/// Debug cross-run audit (DESIGN.md §14): after a span sweep, the masked
/// reference kernel is re-run into scratch and the results must agree
/// bitwise at every ocean cell (land cells are exactly the points the
/// span path is entitled to skip).
void audit_span_field(const util::MaskArray& mask, int nb, int nx, int ny,
                      const double* span_out, std::ptrdiff_t stride,
                      const double* ref, std::ptrdiff_t ref_stride) {
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      if (!mask(i, j)) continue;
      for (int m = 0; m < nb; ++m) {
        const double a =
            span_out[j * stride + static_cast<std::ptrdiff_t>(i) * nb + m];
        const double b =
            ref[j * ref_stride + static_cast<std::ptrdiff_t>(i) * nb + m];
        MINIPOP_REQUIRE(std::memcmp(&a, &b, sizeof(double)) == 0,
                        "span/masked sweep mismatch at (" << i << "," << j
                                                          << ") member "
                                                          << m);
      }
    }
}

/// Reduction sums must agree bitwise (not just to tolerance): the span
/// loop only drops +0.0 terms from a +0.0-seeded accumulator.
inline void audit_span_sums(const double* span_sums, const double* ref,
                            int n) {
  for (int m = 0; m < n; ++m)
    MINIPOP_REQUIRE(std::memcmp(&span_sums[m], &ref[m], sizeof(double)) == 0,
                    "span/masked reduction mismatch, member " << m);
}
#endif

}  // namespace

DistOperator::DistOperator(const grid::NinePointStencil& stencil,
                           const grid::Decomposition& decomp, int rank)
    : decomp_(&decomp), stencil_(&stencil), rank_(rank),
      phi_(stencil.phi()) {
  MINIPOP_REQUIRE(stencil.nx() == decomp.nx_global() &&
                      stencil.ny() == decomp.ny_global(),
                  "stencil " << stencil.nx() << "x" << stencil.ny()
                             << " vs decomposition " << decomp.nx_global()
                             << "x" << decomp.ny_global());
  MINIPOP_REQUIRE(stencil.periodic_x() == decomp.periodic_x(),
                  "periodicity mismatch");

  const auto& ids = decomp.blocks_of_rank(rank);
  block_coeff_.reserve(ids.size());
  block_mask_.reserve(ids.size());
  for (int id : ids) {
    const auto& b = decomp.block(id);
    std::array<util::Field, grid::kNumDirs> coeffs;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      coeffs[d] = util::Field(b.nx, b.ny);
      const auto& global = stencil.coeff(static_cast<grid::Dir>(d));
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeffs[d](i, j) = global(b.i0 + i, b.j0 + j);
    }
    util::MaskArray mask(b.nx, b.ny);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) {
        mask(i, j) = stencil.mask()(b.i0 + i, b.j0 + j);
        if (mask(i, j)) ++local_ocean_cells_;
      }
    local_cells_ += static_cast<long>(b.nx) * b.ny;
    // Span plan (DESIGN.md §14): compress the block mask once; the
    // interior/rim clippings mirror the overlapped sweeps' sub-rects so
    // their shifted field pointers index the re-based spans directly.
    BlockSpans full(mask.data(), mask.nx(), b.nx, b.ny);
#if MINIPOP_BOUNDS_CHECK
    full.validate(mask.data(), mask.nx());
#endif
    SubRect in;
    span_interior_.push_back(interior_rect(b.nx, b.ny, &in)
                                 ? full.clipped(in.i0, in.j0, in.ni, in.nj)
                                 : BlockSpans());
    SubRect rim[4];
    const int nrim = rim_rects(b.nx, b.ny, rim);
    std::array<BlockSpans, 4> rims;
    for (int k = 0; k < nrim; ++k)
      rims[k] = full.clipped(rim[k].i0, rim[k].j0, rim[k].ni, rim[k].nj);
    span_rim_.push_back(std::move(rims));
    span_full_.push_back(std::move(full));

    block_coeff_.push_back(std::move(coeffs));
    block_mask_.push_back(std::move(mask));
  }
  build_column_sums();
}

void DistOperator::build_column_sums() const {
  column_sum_.clear();
  column_sum_.reserve(block_coeff_.size());
  for (std::size_t lb = 0; lb < block_coeff_.size(); ++lb) {
    const auto& c = block_coeff_[lb];
    const auto& mask = block_mask_[lb];
    const int nx = c[0].nx(), ny = c[0].ny();
    util::Field cs(nx, ny);
    // c = A·1: with every x value 1 (halo included), the sweep output
    // at a cell is just the sum of its nine coefficients — no scratch
    // field or halo exchange needed. Land cells are zeroed to match the
    // masked dots that consume the field.
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        double s = 0.0;
        for (int d = 0; d < grid::kNumDirs; ++d) s += c[d](i, j);
        cs(i, j) = mask(i, j) ? s : 0.0;
      }
    column_sum_.push_back(std::move(cs));
  }
}

void DistOperator::repair_coefficients() const {
  const auto& ids = decomp_->blocks_of_rank(rank_);
  for (std::size_t lb = 0; lb < ids.size(); ++lb) {
    const auto& b = decomp_->block(ids[lb]);
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const auto& global = stencil_->coeff(static_cast<grid::Dir>(d));
      util::Field& coeff = block_coeff_[lb][d];
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeff(i, j) = global(b.i0 + i, b.j0 + j);
    }
  }
  build_column_sums();
}

void DistOperator::offer_coeff_fault_sites() const {
#if MINIPOP_FAULTS
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    double* planes[grid::kNumDirs];
    for (int d = 0; d < grid::kNumDirs; ++d)
      planes[d] = block_coeff_[lb][d].data();
    fault::hook_coeff_bitflip(rank_, planes, block_coeff_[lb][0].size());
  }
#endif
}

void DistOperator::count(comm::Communicator& comm, std::uint64_t per_point,
                         int nb) const {
  const std::uint64_t swept = static_cast<std::uint64_t>(local_cells_) * nb;
  comm.costs().add_flops(per_point * swept);
  comm.costs().add_points(
      static_cast<std::uint64_t>(local_ocean_cells_) * nb, swept);
}

template <class Sweep>
void DistOperator::sweep_regions(comm::Communicator& comm,
                                 const comm::HaloExchanger& halo,
                                 comm::DistFieldBatch& x,
                                 comm::HaloFreshness fresh, bool overlap,
                                 const Sweep& sweep) const {
  if (!overlap || fresh == comm::HaloFreshness::kFresh) {
    if (fresh == comm::HaloFreshness::kStale) halo.exchange(comm, x);
    for (int lb = 0; lb < num_local_blocks(); ++lb)
      sweep(lb, SubRect{0, 0, x.info(lb).nx, x.info(lb).ny}, span_full_[lb]);
    return;
  }
  auto inflight = halo.begin(comm, x);
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    SubRect in;
    if (interior_rect(x.info(lb).nx, x.info(lb).ny, &in))
      sweep(lb, in, span_interior_[lb]);
  }
  inflight.finish();
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    SubRect rim[4];
    const int n = rim_rects(x.info(lb).nx, x.info(lb).ny, rim);
    for (int k = 0; k < n; ++k) sweep(lb, rim[k], span_rim_[lb][k]);
  }
}

void DistOperator::apply_impl(comm::Communicator& comm,
                              const comm::HaloExchanger& halo,
                              comm::DistFieldBatch& x, comm::DistFieldBatch& y,
                              comm::HaloFreshness fresh, bool overlap) const {
  MINIPOP_REQUIRE(x.compatible_with(y), "x/y field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(&x != &y, "apply requires distinct x and y");
  offer_coeff_fault_sites();
  const auto& coeff = block_coeff_;
  const int nb = x.nb();
  sweep_regions(comm, halo, x, fresh, overlap,
                [&](int lb, const SubRect& q, const BlockSpans& sp) {
                  kernels::apply9(shift(stencil_view(coeff[lb]), q.i0, q.j0),
                                  sp.row_offset(), sp.spans(), nb, q.nj,
                                  at(x.interior(lb), x.stride(lb), nb, q),
                                  x.stride(lb),
                                  at(y.interior(lb), y.stride(lb), nb, q),
                                  y.stride(lb));
                });
#if MINIPOP_BOUNDS_CHECK
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& b = x.info(lb);
    const std::ptrdiff_t ss = static_cast<std::ptrdiff_t>(b.nx) * nb;
    std::vector<double> scratch(static_cast<std::size_t>(ss) * b.ny);
    kernels::masked::apply9(stencil_view(coeff[lb]), nb, b.nx, b.ny,
                            x.interior(lb), x.stride(lb), scratch.data(),
                            ss);
    audit_span_field(block_mask_[lb], nb, b.nx, b.ny, y.interior(lb),
                     y.stride(lb), scratch.data(), ss);
  }
#endif
  // Paper convention (§2): a nine-point matvec is 9 operations per point.
  count(comm, 9, nb);
  offer_interiors(rank_, y, block_mask_);
}

void DistOperator::residual_impl(comm::Communicator& comm,
                                 const comm::HaloExchanger& halo,
                                 const comm::DistFieldBatch& b,
                                 comm::DistFieldBatch& x,
                                 comm::DistFieldBatch& r,
                                 comm::HaloFreshness fresh,
                                 bool overlap) const {
  MINIPOP_REQUIRE(b.compatible_with(x) && b.compatible_with(r),
                  "b/x/r field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(&b != &r && &x != &r, "residual requires distinct r");
  offer_coeff_fault_sites();
  const auto& coeff = block_coeff_;
  const int nb = x.nb();
  sweep_regions(comm, halo, x, fresh, overlap,
                [&](int lb, const SubRect& q, const BlockSpans& sp) {
                  kernels::residual9(
                      shift(stencil_view(coeff[lb]), q.i0, q.j0),
                      sp.row_offset(), sp.spans(), nb, q.nj,
                      at(b.interior(lb), b.stride(lb), nb, q), b.stride(lb),
                      at(x.interior(lb), x.stride(lb), nb, q), x.stride(lb),
                      at(r.interior(lb), r.stride(lb), nb, q),
                      r.stride(lb));
                });
#if MINIPOP_BOUNDS_CHECK
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
    const std::ptrdiff_t ss = static_cast<std::ptrdiff_t>(info.nx) * nb;
    std::vector<double> scratch(static_cast<std::size_t>(ss) * info.ny);
    kernels::masked::residual9(stencil_view(coeff[lb]), nb, info.nx,
                               info.ny, b.interior(lb), b.stride(lb),
                               x.interior(lb), x.stride(lb), scratch.data(),
                               ss);
    audit_span_field(block_mask_[lb], nb, info.nx, info.ny, r.interior(lb),
                     r.stride(lb), scratch.data(), ss);
  }
#endif
  // Matvec (9 ops/point) + subtraction (1 op/point), as before fusion.
  count(comm, 10, nb);
  offer_interiors(rank_, r, block_mask_);
}

void DistOperator::abft_local_sums_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch& b,
                                         const comm::DistFieldBatch& r,
                                         const comm::DistFieldBatch& x,
                                         double* out) const {
  MINIPOP_REQUIRE(b.compatible_with(r) && b.compatible_with(x),
                  "b/r/x batch mismatch");
  const int nb = b.nb();
  for (int m = 0; m < 3 * nb; ++m) out[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const int ny = b.info(lb).ny;
    const int* ro = span_full_[lb].row_offset();
    const kernels::Span* sp = span_full_[lb].spans();
    const util::Field& cs = column_sum_[lb];
    kernels::sum(ro, sp, nb, ny, b.interior(lb), b.stride(lb), out);
    kernels::sum(ro, sp, nb, ny, r.interior(lb), r.stride(lb), out + nb);
    kernels::dot_shared(ro, sp, nb, ny, cs.data(), cs.nx(), x.interior(lb),
                        x.stride(lb), out + 2 * nb);
  }
  count(comm, 4, nb);
}

// ---------------------------------------------------------------------------
// Sweeps over batches (a DistField is the width-1 batch). Coefficient
// fault sites arm on every sweep (shared planes), caught by the ABFT
// audit.

void DistOperator::apply_batch(comm::Communicator& comm,
                               const comm::HaloExchanger& halo,
                               comm::DistFieldBatch& x, comm::DistFieldBatch& y,
                               comm::HaloFreshness fresh) const {
  apply_impl(comm, halo, x, y, fresh, false);
}

void DistOperator::residual_batch(comm::Communicator& comm,
                                  const comm::HaloExchanger& halo,
                                  const comm::DistFieldBatch& b,
                                  comm::DistFieldBatch& x,
                                  comm::DistFieldBatch& r,
                                  comm::HaloFreshness fresh) const {
  residual_impl(comm, halo, b, x, r, fresh, false);
}

void DistOperator::residual_local_norm2_batch(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
    comm::DistFieldBatch& r, double* sums, comm::HaloFreshness fresh) const {
  MINIPOP_REQUIRE(b.compatible_with(x) && b.compatible_with(r),
                  "b/x/r batch mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "batch does not match operator decomposition");
  MINIPOP_REQUIRE(&b != &r && &x != &r, "residual requires distinct r");
  offer_coeff_fault_sites();
  if (fresh == comm::HaloFreshness::kStale) halo.exchange(comm, x);

  const auto& coeff = block_coeff_;
  const int nb = x.nb();
  for (int m = 0; m < nb; ++m) sums[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
#if MINIPOP_BOUNDS_CHECK
    std::vector<double> sums0(sums, sums + nb);
#endif
    kernels::residual_norm2_9(
        stencil_view(coeff[lb]), span_full_[lb].row_offset(),
        span_full_[lb].spans(), nb, info.ny, b.interior(lb), b.stride(lb),
        x.interior(lb), x.stride(lb), r.interior(lb), r.stride(lb), sums);
#if MINIPOP_BOUNDS_CHECK
    const std::ptrdiff_t ss = static_cast<std::ptrdiff_t>(info.nx) * nb;
    std::vector<double> scratch(static_cast<std::size_t>(ss) * info.ny);
    kernels::masked::residual_norm2_9(
        stencil_view(coeff[lb]), block_mask_[lb].data(),
        block_mask_[lb].nx(), nb, info.nx, info.ny, b.interior(lb),
        b.stride(lb), x.interior(lb), x.stride(lb), scratch.data(), ss,
        sums0.data());
    audit_span_field(block_mask_[lb], nb, info.nx, info.ny, r.interior(lb),
                     r.stride(lb), scratch.data(), ss);
    audit_span_sums(sums, sums0.data(), nb);
#endif
  }
  // Residual (10 ops/point) + masked norm (2 ops/point), as when the
  // sweeps were separate.
  count(comm, 12, nb);
  // Corruption lands after the fused norm was taken, exactly like a bit
  // flip striking between two sweeps: it rides r into the next iterates
  // and the *next* check window must catch it.
  offer_interiors(rank_, r, block_mask_);
}

void DistOperator::apply_overlapped_batch(comm::Communicator& comm,
                                          const comm::HaloExchanger& halo,
                                          comm::DistFieldBatch& x,
                                          comm::DistFieldBatch& y,
                                          comm::HaloFreshness fresh) const {
  apply_impl(comm, halo, x, y, fresh, true);
}

void DistOperator::residual_overlapped_batch(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
    comm::DistFieldBatch& r, comm::HaloFreshness fresh) const {
  residual_impl(comm, halo, b, x, r, fresh, true);
}

void DistOperator::residual_local_norm2_overlapped_batch(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const comm::DistFieldBatch& b, comm::DistFieldBatch& x,
    comm::DistFieldBatch& r, double* sums, comm::HaloFreshness fresh) const {
  // The fused kernel threads whole-block accumulators, which an
  // interior/rim split would reorder. Instead overlap the residual sweep
  // and take the per-member norms in a second pass with the blocking
  // accumulation order ("residual_norm2_9 == residual9 + dot"). Flops
  // match the blocking path.
  residual_overlapped_batch(comm, halo, b, x, r, fresh);
  local_dot_batch(comm, r, r, sums);
}

void DistOperator::local_dot_batch(comm::Communicator& comm,
                                   const comm::DistFieldBatch& a,
                                   const comm::DistFieldBatch& b,
                                   double* sums) const {
  MINIPOP_REQUIRE(a.compatible_with(b), "a/b field mismatch");
  const int nb = a.nb();
  for (int m = 0; m < nb; ++m) sums[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
#if MINIPOP_BOUNDS_CHECK
    std::vector<double> ref(sums, sums + nb);
    kernels::masked::dot(block_mask_[lb].data(), block_mask_[lb].nx(), nb,
                         info.nx, info.ny, a.interior(lb), a.stride(lb),
                         b.interior(lb), b.stride(lb), ref.data());
#endif
    kernels::dot(span_full_[lb].row_offset(), span_full_[lb].spans(), nb,
                 info.ny, a.interior(lb), a.stride(lb), b.interior(lb),
                 b.stride(lb), sums);
#if MINIPOP_BOUNDS_CHECK
    audit_span_sums(sums, ref.data(), nb);
#endif
  }
  // Paper convention: inner product is 2 ops/point (multiply + masked add).
  count(comm, 2, nb);
}

void DistOperator::local_dot3_batch(comm::Communicator& comm,
                                    const comm::DistFieldBatch& r,
                                    const comm::DistFieldBatch& rp,
                                    const comm::DistFieldBatch& z,
                                    bool with_norm, double* out) const {
  MINIPOP_REQUIRE(r.compatible_with(rp) && r.compatible_with(z),
                  "r/rp/z field mismatch");
  const int nb = r.nb();
  for (int m = 0; m < 3 * nb; ++m) out[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
#if MINIPOP_BOUNDS_CHECK
    std::vector<double> ref(out, out + 3 * nb);
    kernels::masked::dot3(block_mask_[lb].data(), block_mask_[lb].nx(), nb,
                          info.nx, info.ny, r.interior(lb), r.stride(lb),
                          rp.interior(lb), rp.stride(lb), z.interior(lb),
                          z.stride(lb), with_norm, ref.data());
#endif
    kernels::dot3(span_full_[lb].row_offset(), span_full_[lb].spans(), nb,
                  info.ny, r.interior(lb), r.stride(lb), rp.interior(lb),
                  rp.stride(lb), z.interior(lb), z.stride(lb), with_norm,
                  out);
#if MINIPOP_BOUNDS_CHECK
    audit_span_sums(out, ref.data(), 3 * nb);
#endif
  }
  count(comm, with_norm ? 6 : 4, nb);
}

void DistOperator::mask_interior_batch(comm::DistFieldBatch& x) const {
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::mask_zero(span_full_[lb].row_offset(), span_full_[lb].spans(),
                       x.nb(), info.nx, info.ny, x.interior(lb),
                       x.stride(lb));
  }
}

void DistOperator::residual(comm::Communicator& comm,
                            const comm::HaloExchanger& halo,
                            const comm::DistField& b, comm::DistField& x,
                            comm::DistField& r,
                            comm::HaloFreshness fresh) const {
  residual_batch(comm, halo, b, x, r, fresh);
}

double DistOperator::local_dot(comm::Communicator& comm,
                               const comm::DistField& a,
                               const comm::DistField& b) const {
  double sum;
  local_dot_batch(comm, a, b, &sum);
  return sum;
}

}  // namespace minipop::solver
