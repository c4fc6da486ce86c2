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

/// Value of a global plane at (gi, gj): periodic wrap in x, zero
/// outside the domain. The stencil couples nothing across the domain
/// edge, so a zero ghost coefficient reproduces the physical boundary
/// exactly and keeps out-of-domain ghost arithmetic inert (0 * anything
/// adds +/-0 to every sum).
template <typename T>
T global_at(const util::Array2D<T>& g, int gi, int gj, bool periodic_x) {
  if (gj < 0 || gj >= g.ny()) return T{};
  if (gi < 0 || gi >= g.nx()) {
    if (!periodic_x) return T{};
    gi = (gi % g.nx() + g.nx()) % g.nx();
  }
  return g(gi, gj);
}

/// Fill `out`, block b's plane padded by `rim` cells, from the global
/// plane `g`: the block's own cells row by row, then the rim.
template <typename T>
void gather_padded(const util::Array2D<T>& g, const grid::BlockInfo& b,
                   int rim, bool periodic_x, util::Array2D<T>& out) {
  for (int j = 0; j < b.ny; ++j)
    for (int i = 0; i < b.nx; ++i)
      out(i + rim, j + rim) = g(b.i0 + i, b.j0 + j);
  if (rim == 0) return;
  for (int j = 0; j < out.ny(); ++j)
    for (int i = 0; i < out.nx(); ++i)
      if (j < rim || j >= b.ny + rim || i < rim || i >= b.nx + rim)
        out(i, j) = global_at(g, b.i0 + i - rim, b.j0 + j - rim, periodic_x);
}

/// Offer each block interior of a sweep's freshly written output to the
/// installed FaultInjector. Armed on width-1 solves only, because the
/// hook addresses one scalar plane. A member of a wider batch that
/// diverges recovers through the per-member sub-batches of the
/// resilient decorator (DESIGN.md §11). Compiles to nothing when
/// MINIPOP_FAULTS is off.
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
                           const grid::Decomposition& decomp, int rank,
                           int rim)
    : decomp_(&decomp), stencil_(&stencil), rank_(rank), rim_(rim),
      phi_(stencil.phi()) {
  MINIPOP_REQUIRE(stencil.nx() == decomp.nx_global() &&
                      stencil.ny() == decomp.ny_global(),
                  "stencil " << stencil.nx() << "x" << stencil.ny()
                             << " vs decomposition " << decomp.nx_global()
                             << "x" << decomp.ny_global());
  MINIPOP_REQUIRE(stencil.periodic_x() == decomp.periodic_x(),
                  "periodicity mismatch");
  // A sweep on the region grown by rim reads x one cell wider.
  MINIPOP_REQUIRE(rim == 0 || (rim > 0 && rim < decomp.max_halo_width()),
                  "coefficient rim " << rim << " outside [0, "
                                     << decomp.max_halo_width() - 1 << "]");

  const auto& ids = decomp.blocks_of_rank(rank);
  block_coeff_.reserve(ids.size());
  block_mask_.reserve(ids.size());
  span_plans_.resize(static_cast<std::size_t>(rim) + 1);
  cells_.assign(static_cast<std::size_t>(rim) + 1, 0);
  ocean_cells_.assign(static_cast<std::size_t>(rim) + 1, 0);
  for (int id : ids) {
    const auto& b = decomp.block(id);
    const int pnx = b.nx + 2 * rim, pny = b.ny + 2 * rim;
    std::array<util::Field, grid::kNumDirs> coeffs;
    for (auto& c : coeffs) c = util::Field(pnx, pny);
    block_coeff_.push_back(std::move(coeffs));

    // Span plans (DESIGN.md §14): compress the padded mask once per
    // grown region; only the plans are kept.
    util::MaskArray padded(pnx, pny);
    gather_padded(stencil.mask(), b, rim, decomp.periodic_x(), padded);
    for (int e = 0; e <= rim; ++e) {
      const unsigned char* corner =
          padded.data() + static_cast<std::ptrdiff_t>(rim - e) * pnx +
          (rim - e);
      BlockSpans bs(corner, pnx, b.nx + 2 * e, b.ny + 2 * e);
#if MINIPOP_BOUNDS_CHECK
      bs.validate(corner, pnx);
#endif
      cells_[e] += static_cast<std::uint64_t>(b.nx + 2 * e) * (b.ny + 2 * e);
      ocean_cells_[e] += static_cast<std::uint64_t>(bs.active_points());
      span_plans_[e].push_back(std::move(bs));
    }

    util::MaskArray mask(b.nx, b.ny);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) {
        mask(i, j) = padded(i + rim, j + rim);
        if (mask(i, j)) ++local_ocean_cells_;
      }
    block_mask_.push_back(std::move(mask));
  }
  gather_coefficients();
  build_column_sums();
}

void DistOperator::gather_coefficients() const {
  const auto& ids = decomp_->blocks_of_rank(rank_);
  for (std::size_t lb = 0; lb < ids.size(); ++lb)
    for (int d = 0; d < grid::kNumDirs; ++d)
      gather_padded(stencil_->coeff(static_cast<grid::Dir>(d)),
                    decomp_->block(ids[lb]), rim_, decomp_->periodic_x(),
                    block_coeff_[lb][d]);
}

kernels::Stencil9 DistOperator::stencil_at(int lb, int e) const {
  const auto& c = block_coeff_[lb];
  const std::ptrdiff_t pitch = c[0].nx();
  const std::ptrdiff_t off = (rim_ - e) * pitch + (rim_ - e);
  const auto at = [&](grid::Dir d) {
    return c[static_cast<int>(d)].data() + off;
  };
  return kernels::Stencil9{at(grid::Dir::kCenter),    at(grid::Dir::kEast),
                           at(grid::Dir::kWest),      at(grid::Dir::kNorth),
                           at(grid::Dir::kSouth),     at(grid::Dir::kNorthEast),
                           at(grid::Dir::kNorthWest), at(grid::Dir::kSouthEast),
                           at(grid::Dir::kSouthWest), pitch};
}

void DistOperator::build_column_sums() const {
  column_sum_.clear();
  column_sum_.reserve(block_coeff_.size());
  for (std::size_t lb = 0; lb < block_coeff_.size(); ++lb) {
    const auto& c = block_coeff_[lb];
    const auto& mask = block_mask_[lb];
    const int nx = mask.nx(), ny = mask.ny();
    util::Field cs(nx, ny);
    // c = A·1: with every x value 1 (halo included), the sweep output
    // at a cell is just the sum of its nine coefficients — no scratch
    // field or halo exchange needed. Land cells are zeroed to match the
    // masked dots that consume the field. Owned cells only: the rims
    // are other ranks' interiors.
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        double s = 0.0;
        for (int d = 0; d < grid::kNumDirs; ++d) s += c[d](i + rim_, j + rim_);
        cs(i, j) = mask(i, j) ? s : 0.0;
      }
    column_sum_.push_back(std::move(cs));
  }
}

void DistOperator::repair_coefficients() const {
  gather_coefficients();
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
                         int members, int e) const {
  const std::uint64_t swept = cells_[e] * members;
  comm.costs().add_flops(per_point * swept);
  if (e > 0)
    comm.costs().add_redundant_flops(per_point * (cells_[e] - cells_[0]) *
                                     members);
  comm.costs().add_points(ocean_cells_[e] * members, swept);
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
    const int* ro = span_plan()[lb].row_offset();
    const kernels::Span* sp = span_plan()[lb].spans();
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
  MINIPOP_REQUIRE(x.compatible_with(y), "x/y field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(&x != &y, "apply requires distinct x and y");
  offer_coeff_fault_sites();
  if (fresh == comm::HaloFreshness::kStale) halo.exchange(comm, x);

  const int nb = x.nb();
  for (int lb = 0; lb < num_local_blocks(); ++lb)
    kernels::apply9(stencil_at(lb, 0), span_plan()[lb].row_offset(),
                    span_plan()[lb].spans(), nb, x.info(lb).ny,
                    x.interior(lb), x.stride(lb), y.interior(lb),
                    y.stride(lb));
#if MINIPOP_BOUNDS_CHECK
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& b = x.info(lb);
    const std::ptrdiff_t ss = static_cast<std::ptrdiff_t>(b.nx) * nb;
    std::vector<double> scratch(static_cast<std::size_t>(ss) * b.ny);
    kernels::masked::apply9(stencil_at(lb, 0), nb, b.nx, b.ny,
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

void DistOperator::residual_batch(comm::Communicator& comm,
                                  const comm::HaloExchanger& halo,
                                  const comm::DistFieldBatch& b,
                                  comm::DistFieldBatch& x,
                                  comm::DistFieldBatch& r,
                                  comm::HaloFreshness fresh, int ext) const {
  MINIPOP_REQUIRE(b.compatible_with(x) && b.compatible_with(r),
                  "b/x/r field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(&b != &r && &x != &r, "residual requires distinct r");
  MINIPOP_REQUIRE(ext >= 0 && ext <= rim_ && ext < x.halo(),
                  "residual on the interior grown by " << ext << " (rim "
                                                       << rim_ << ", halo "
                                                       << x.halo() << ")");
  offer_coeff_fault_sites();
  if (fresh == comm::HaloFreshness::kStale) halo.exchange(comm, x);

  const SpanPlan& plan = span_plan(ext);
  const int nb = x.nb();
  for (int lb = 0; lb < num_local_blocks(); ++lb)
    kernels::residual9(stencil_at(lb, ext), plan[lb].row_offset(),
                       plan[lb].spans(), nb, x.info(lb).ny + 2 * ext,
                       b.corner(lb, ext), b.stride(lb), x.corner(lb, ext),
                       x.stride(lb), r.corner(lb, ext), r.stride(lb));
#if MINIPOP_BOUNDS_CHECK
  // The audit covers the interior sweeps; a grown sweep repeats the
  // owners' interior arithmetic.
  if (ext == 0)
    for (int lb = 0; lb < num_local_blocks(); ++lb) {
      const auto& info = r.info(lb);
      const std::ptrdiff_t ss = static_cast<std::ptrdiff_t>(info.nx) * nb;
      std::vector<double> scratch(static_cast<std::size_t>(ss) * info.ny);
      kernels::masked::residual9(stencil_at(lb, 0), nb, info.nx, info.ny,
                                 b.interior(lb), b.stride(lb),
                                 x.interior(lb), x.stride(lb),
                                 scratch.data(), ss);
      audit_span_field(block_mask_[lb], nb, info.nx, info.ny,
                       r.interior(lb), r.stride(lb), scratch.data(), ss);
    }
#endif
  // Matvec (9 ops/point) + subtraction (1 op/point), as before fusion.
  count(comm, 10, nb, ext);
  offer_interiors(rank_, r, block_mask_);
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

  const int nb = x.nb();
  for (int m = 0; m < nb; ++m) sums[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
#if MINIPOP_BOUNDS_CHECK
    std::vector<double> sums0(sums, sums + nb);
#endif
    kernels::residual_norm2_9(
        stencil_at(lb, 0), span_plan()[lb].row_offset(),
        span_plan()[lb].spans(), nb, info.ny, b.interior(lb), b.stride(lb),
        x.interior(lb), x.stride(lb), r.interior(lb), r.stride(lb), sums);
#if MINIPOP_BOUNDS_CHECK
    const std::ptrdiff_t ss = static_cast<std::ptrdiff_t>(info.nx) * nb;
    std::vector<double> scratch(static_cast<std::size_t>(ss) * info.ny);
    kernels::masked::residual_norm2_9(
        stencil_at(lb, 0), block_mask_[lb].data(),
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
    kernels::dot(span_plan()[lb].row_offset(), span_plan()[lb].spans(), nb,
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
    kernels::dot3(span_plan()[lb].row_offset(), span_plan()[lb].spans(), nb,
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
    kernels::mask_zero(span_plan()[lb].row_offset(), span_plan()[lb].spans(),
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
