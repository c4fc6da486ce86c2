#include "src/solver/field_ops.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {
// Cost of an update over the plan of the interiors grown by `ext`: flops
// on every point of that region for each updated member (a frozen
// member's solve has, logically, already returned), the share beyond
// the interiors also as redundant flops, and the plan's ocean census
// against the swept region.
void count_update(comm::Communicator& comm, std::uint64_t flops_per_point,
                  const comm::DistFieldBatch& x, const SpanPlan& plan,
                  const unsigned char* active, int ext = 0) {
  std::uint64_t lanes = 0;
  for (int m = 0; m < x.nb(); ++m)
    if (!active || active[m]) ++lanes;
  std::uint64_t points = 0, interior = 0;
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& b = x.info(lb);
    points += static_cast<std::uint64_t>(b.nx + 2 * ext) * (b.ny + 2 * ext);
    interior += static_cast<std::uint64_t>(b.nx) * b.ny;
  }
  std::uint64_t ocean = 0;
  for (const auto& bs : plan)
    ocean += static_cast<std::uint64_t>(bs.active_points());
  comm.costs().add_flops(flops_per_point * points * lanes);
  if (ext > 0)
    comm.costs().add_redundant_flops(flops_per_point * (points - interior) *
                                     lanes);
  comm.costs().add_points(ocean * lanes, points * lanes);
}
}  // namespace

void lincomb(comm::Communicator& comm, const double* a,
             const comm::DistFieldBatch& x, const double* b,
             comm::DistFieldBatch& y, const SpanPlan& plan,
             const unsigned char* active) {
  MINIPOP_REQUIRE(x.compatible_with(y), "lincomb field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                     x.info(lb).ny, a, x.interior(lb), x.stride(lb), b,
                     y.interior(lb), y.stride(lb), active);
  count_update(comm, 2, x, plan, active);
}

void axpy(comm::Communicator& comm, const double* a,
          const comm::DistFieldBatch& x, comm::DistFieldBatch& y,
          const SpanPlan& plan, const unsigned char* active) {
  MINIPOP_REQUIRE(x.compatible_with(y), "axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::axpy(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                  x.info(lb).ny, a, x.interior(lb), x.stride(lb),
                  y.interior(lb), y.stride(lb), active);
  count_update(comm, 2, x, plan, active);
}

void lincomb_axpy(comm::Communicator& comm, const double* a,
                  const comm::DistFieldBatch& x, const double* b,
                  comm::DistFieldBatch& y, const double* c,
                  comm::DistFieldBatch& z, const SpanPlan& plan,
                  const unsigned char* active, int ext) {
  MINIPOP_REQUIRE(x.compatible_with(y) && x.compatible_with(z),
                  "lincomb_axpy field mismatch");
  MINIPOP_REQUIRE(ext >= 0 && ext <= x.halo(),
                  "update on the interior grown by " << ext);
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb_axpy(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                          x.info(lb).ny + 2 * ext, a, x.corner(lb, ext),
                          x.stride(lb), b, y.corner(lb, ext), y.stride(lb), c,
                          z.corner(lb, ext), z.stride(lb), active);
  // Same count as the lincomb + axpy it fuses: 2 + 2 ops/point.
  count_update(comm, 4, x, plan, active, ext);
}

void scale(comm::Communicator& comm, const double* a, comm::DistFieldBatch& x,
           const SpanPlan& plan, const unsigned char* active) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::scale(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                   x.info(lb).ny, a, x.interior(lb), x.stride(lb), active);
  count_update(comm, 1, x, plan, active);
}

void copy_interior(const comm::DistFieldBatch& x, comm::DistFieldBatch& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "copy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::copy(x.nb(), info.nx, info.ny, x.interior(lb), x.stride(lb),
                  y.interior(lb), y.stride(lb));
  }
}

void fill_interior(comm::DistFieldBatch& x, double v) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::fill(x.nb(), info.nx, info.ny, v, x.interior(lb), x.stride(lb));
  }
}

void fill_member(comm::DistFieldBatch& x, int m, double v) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i) x.at(lb, i, j, m) = v;
  }
}

}  // namespace minipop::solver
