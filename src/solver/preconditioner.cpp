#include "src/solver/preconditioner.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

// Both preconditioners are pointwise over a batch of any width. The
// span kernels write 0 in the land gaps, which keeps every
// preconditioned vector +0.0 on land.

/// out = in at ocean cells, 0 on land.
void copy_ocean(const DistOperator& op, const comm::DistFieldBatch& in,
                comm::DistFieldBatch& out) {
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
void scale_ocean(comm::Communicator& comm, const DistOperator& op,
                 const std::vector<util::Field>& inv_diag,
                 const comm::DistFieldBatch& in, comm::DistFieldBatch& out) {
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

void IdentityPreconditioner::apply_batch(comm::Communicator& /*comm*/,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
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

void DiagonalPreconditioner::apply_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
  scale_ocean(comm, *op_, inv_diag_, in, out);
}

}  // namespace minipop::solver
