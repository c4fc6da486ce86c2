#include "src/solver/preconditioner.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

// Both preconditioners are pointwise, so one body serves a DistField
// (a width-1 plane) and a batch of any width and precision. The span
// kernels write 0 in the land gaps, which keeps every preconditioned
// vector +0.0 on land.

/// out = in at ocean cells, 0 on land.
template <class F>
void copy_ocean(const DistOperator& op, const F& in, F& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "identity precond field mismatch");
  const SpanPlan& plan = op.span_plan();
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    kernels::masked_copy(plan[lb].row_offset(), plan[lb].spans(), in.nb(),
                         info.nx, info.ny, in.interior(lb), in.stride(lb),
                         out.interior(lb), out.stride(lb));
  }
}

/// out = inv * in at ocean cells, 0 on land.
template <class F, typename T>
void scale_ocean(comm::Communicator& comm, const DistOperator& op,
                 const std::vector<util::Array2D<T>>& inv_diag, const F& in,
                 F& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "diagonal precond field mismatch");
  const SpanPlan& plan = op.span_plan();
  const int nb = in.nb();
  std::uint64_t points = 0;
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& inv = inv_diag[lb];
    kernels::diag_apply(inv.data(), inv.nx(), plan[lb].row_offset(),
                        plan[lb].spans(), nb, info.nx, info.ny,
                        in.interior(lb), in.stride(lb), out.interior(lb),
                        out.stride(lb));
    points += static_cast<std::uint64_t>(info.nx) * info.ny;
  }
  // Paper convention: diagonal preconditioning is 1 op/point (T_p).
  comm.costs().add_flops(points * nb);
  comm.costs().add_points(
      static_cast<std::uint64_t>(op.local_ocean_cells()) * nb, points * nb);
}

}  // namespace

void IdentityPreconditioner::apply(comm::Communicator& /*comm*/,
                                   const comm::DistField& in,
                                   comm::DistField& out) {
  copy_ocean(*op_, in, out);
}

void IdentityPreconditioner::apply_batch(comm::Communicator& /*comm*/,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
  copy_ocean(*op_, in, out);
}

void IdentityPreconditioner::apply_batch(comm::Communicator& /*comm*/,
                                         const comm::DistFieldBatch32& in,
                                         comm::DistFieldBatch32& out) {
  copy_ocean(*op_, in, out);
}

DiagonalPreconditioner::DiagonalPreconditioner(const DistOperator& op)
    : op_(&op) {
  inv_diag_.reserve(op.num_local_blocks());
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& diag = op.block_diagonal(lb);
    const auto& mask = op.block_mask(lb);
    util::Field inv(diag.nx(), diag.ny(), 0.0);
    for (int j = 0; j < diag.ny(); ++j)
      for (int i = 0; i < diag.nx(); ++i) {
        if (!mask(i, j)) continue;
        MINIPOP_REQUIRE(diag(i, j) > 0.0, "non-positive diagonal at block "
                                              << lb << " (" << i << "," << j
                                              << ")");
        inv(i, j) = 1.0 / diag(i, j);
      }
    inv_diag_.push_back(std::move(inv));
  }
}

void DiagonalPreconditioner::apply(comm::Communicator& comm,
                                   const comm::DistField& in,
                                   comm::DistField& out) {
  scale_ocean(comm, *op_, inv_diag_, in, out);
}

void DiagonalPreconditioner::ensure_inv_diag32() {
  if (!inv_diag32_.empty()) return;
  inv_diag32_.reserve(inv_diag_.size());
  for (const auto& inv : inv_diag_) {
    util::Array2D<float> inv32(inv.nx(), inv.ny());
    for (int j = 0; j < inv.ny(); ++j)
      for (int i = 0; i < inv.nx(); ++i)
        inv32(i, j) = static_cast<float>(inv(i, j));
    inv_diag32_.push_back(std::move(inv32));
  }
}

void DiagonalPreconditioner::apply_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
  scale_ocean(comm, *op_, inv_diag_, in, out);
}

void DiagonalPreconditioner::apply_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch32& in,
                                         comm::DistFieldBatch32& out) {
  ensure_inv_diag32();
  scale_ocean(comm, *op_, inv_diag32_, in, out);
}

}  // namespace minipop::solver
