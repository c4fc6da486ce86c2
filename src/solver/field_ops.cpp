#include "src/solver/field_ops.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {
std::uint64_t interior_points(const comm::DistField& f) {
  std::uint64_t n = 0;
  for (int lb = 0; lb < f.num_local_blocks(); ++lb) {
    const auto& b = f.info(lb);
    n += static_cast<std::uint64_t>(b.nx) * b.ny;
  }
  return n;
}

// Cost of a field-wide update: flops over every interior point, and the
// plan's ocean census against the swept interior.
void count_update(comm::Communicator& comm, std::uint64_t flops_per_point,
                  const comm::DistField& x, const SpanPlan& plan) {
  const std::uint64_t points = interior_points(x);
  std::uint64_t active = 0;
  for (const auto& bs : plan)
    active += static_cast<std::uint64_t>(bs.active_points());
  comm.costs().add_flops(flops_per_point * points);
  comm.costs().add_points(active, points);
}
}  // namespace

void lincomb(comm::Communicator& comm, double a, const comm::DistField& x,
             double b, comm::DistField& y, const SpanPlan& plan) {
  MINIPOP_REQUIRE(x.compatible_with(y), "lincomb field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb(plan[lb].row_offset(), plan[lb].spans(), 1,
                     x.info(lb).ny, &a, x.interior(lb), x.stride(lb), &b,
                     y.interior(lb), y.stride(lb), nullptr);
  count_update(comm, 2, x, plan);
}

void axpy(comm::Communicator& comm, double a, const comm::DistField& x,
          comm::DistField& y, const SpanPlan& plan) {
  MINIPOP_REQUIRE(x.compatible_with(y), "axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::axpy(plan[lb].row_offset(), plan[lb].spans(), 1, x.info(lb).ny,
                  &a, x.interior(lb), x.stride(lb), y.interior(lb),
                  y.stride(lb), nullptr);
  count_update(comm, 2, x, plan);
}

void lincomb_axpy(comm::Communicator& comm, double a,
                  const comm::DistField& x, double b, comm::DistField& y,
                  double c, comm::DistField& z, const SpanPlan& plan) {
  MINIPOP_REQUIRE(x.compatible_with(y) && x.compatible_with(z),
                  "lincomb_axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb_axpy(plan[lb].row_offset(), plan[lb].spans(), 1,
                          x.info(lb).ny, &a, x.interior(lb), x.stride(lb),
                          &b, y.interior(lb), y.stride(lb), &c,
                          z.interior(lb), z.stride(lb), nullptr);
  // Same count as the lincomb + axpy it fuses: 2 + 2 ops/point.
  count_update(comm, 4, x, plan);
}

void scale(comm::Communicator& comm, double a, comm::DistField& x,
           const SpanPlan& plan) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::scale(plan[lb].row_offset(), plan[lb].spans(), 1, x.info(lb).ny,
                   &a, x.interior(lb), x.stride(lb), nullptr);
  count_update(comm, 1, x, plan);
}

void copy_interior(const comm::DistField& x, comm::DistField& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "copy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::copy(1, info.nx, info.ny, x.interior(lb), x.stride(lb),
                  y.interior(lb), y.stride(lb));
  }
}

void fill_interior(comm::DistField& x, double v) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::fill(1, info.nx, info.ny, v, x.interior(lb), x.stride(lb));
  }
}

// ---------------------------------------------------------------------------
// Batched precision boundary

namespace {
template <typename T>
std::uint64_t batch_interior_points(const comm::DistFieldBatchT<T>& f) {
  std::uint64_t n = 0;
  for (int lb = 0; lb < f.num_local_blocks(); ++lb) {
    const auto& b = f.info(lb);
    n += static_cast<std::uint64_t>(b.nx) * b.ny;
  }
  return n;
}
}  // namespace

void demote(const comm::DistFieldBatch& x, comm::DistFieldBatch32& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "batch demote field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    // Interior rows are nb-widened contiguous spans; convert() takes the
    // widened row length directly (see kernels.hpp).
    kernels::convert(info.nx * x.nb(), info.ny, x.interior(lb), x.stride(lb),
                     y.interior(lb), y.stride(lb));
  }
}

void promote(const comm::DistFieldBatch32& x, comm::DistFieldBatch& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "batch promote field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::convert(info.nx * x.nb(), info.ny, x.interior(lb), x.stride(lb),
                     y.interior(lb), y.stride(lb));
  }
}

void axpy_promoted(comm::Communicator& comm, const double* a,
                   const comm::DistFieldBatch32& x, comm::DistFieldBatch& y,
                   const unsigned char* active, int n_act) {
  MINIPOP_REQUIRE(x.compatible_with(y), "batch axpy_promoted field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::axpy_promoted(x.nb(), info.nx, info.ny, a, x.interior(lb),
                           x.stride(lb), y.interior(lb), y.stride(lb),
                           active);
  }
  comm.costs().add_flops(2 * batch_interior_points(x) * n_act);
}

void copy_interior(const comm::DistFieldBatch& x, comm::DistFieldBatch& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "batch copy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::copy(x.nb(), info.nx, info.ny, x.interior(lb), x.stride(lb),
                  y.interior(lb), y.stride(lb));
  }
}

}  // namespace minipop::solver
