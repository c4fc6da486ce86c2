#include "src/solver/preconditioner.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

void Preconditioner::apply_batch_ext(comm::Communicator& comm,
                                     const comm::DistFieldBatch& in,
                                     comm::DistFieldBatch& out, int ext) {
  MINIPOP_REQUIRE(ext == 0, name() << " preconditioner applies on block "
                                      "interiors only (asked for a region "
                                      "grown by "
                                   << ext << ")");
  apply_batch(comm, in, out);
}

// Both baseline preconditioners are pointwise over a batch of any width
// and any grown region. The span kernels write 0 in the land gaps, which
// keeps every preconditioned vector +0.0 on land.

void IdentityPreconditioner::apply_batch_ext(comm::Communicator& /*comm*/,
                                             const comm::DistFieldBatch& in,
                                             comm::DistFieldBatch& out,
                                             int ext) {
  MINIPOP_REQUIRE(in.compatible_with(out), "identity precond field mismatch");
  MINIPOP_REQUIRE(ext >= 0 && ext <= op_->rim() && ext <= in.halo(),
                  "identity precond on the interior grown by " << ext);
  // out = in at ocean cells, 0 on land.
  const SpanPlan& plan = op_->span_plan(ext);
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    kernels::masked_copy(plan[lb].row_offset(), plan[lb].spans(), in.nb(),
                         info.nx + 2 * ext, info.ny + 2 * ext,
                         in.corner(lb, ext), in.stride(lb),
                         out.corner(lb, ext), out.stride(lb));
  }
}

DiagonalPreconditioner::DiagonalPreconditioner(const DistOperator& op)
    : op_(&op) {
  // Invert the diagonal at the ocean cells of the whole padded plane,
  // which the plan of the region grown by the rim lists.
  const int rim = op.rim();
  const SpanPlan& plan = op.span_plan(rim);
  inv_diag_.reserve(op.num_local_blocks());
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& diag = op.block_diagonal(lb);
    util::Field inv(diag.nx(), diag.ny(), 0.0);
    const BlockSpans& bs = plan[lb];
    for (int j = 0; j < bs.ny(); ++j)
      for (int s = bs.row_offset()[j]; s < bs.row_offset()[j + 1]; ++s)
        for (int i = bs.spans()[s].i0;
             i < bs.spans()[s].i0 + bs.spans()[s].len; ++i) {
          MINIPOP_REQUIRE(diag(i, j) > 0.0,
                          "non-positive diagonal at block "
                              << lb << " (" << i - rim << "," << j - rim
                              << ")");
          inv(i, j) = 1.0 / diag(i, j);
        }
    inv_diag_.push_back(std::move(inv));
  }
}

void DiagonalPreconditioner::apply_batch_ext(comm::Communicator& comm,
                                             const comm::DistFieldBatch& in,
                                             comm::DistFieldBatch& out,
                                             int ext) {
  MINIPOP_REQUIRE(in.compatible_with(out), "diagonal precond field mismatch");
  MINIPOP_REQUIRE(ext >= 0 && ext <= op_->rim() && ext <= in.halo(),
                  "diagonal precond on the interior grown by " << ext);
  // out = inv * in at ocean cells, 0 on land.
  const SpanPlan& plan = op_->span_plan(ext);
  const int nb = in.nb();
  const int off = op_->rim() - ext;
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& inv = inv_diag_[lb];
    kernels::diag_apply(inv.data() + static_cast<std::ptrdiff_t>(off) *
                                         inv.nx() + off,
                        inv.nx(), plan[lb].row_offset(), plan[lb].spans(), nb,
                        info.nx + 2 * ext, info.ny + 2 * ext,
                        in.corner(lb, ext), in.stride(lb),
                        out.corner(lb, ext), out.stride(lb));
  }
  // Paper convention: diagonal preconditioning is 1 op/point (T_p).
  op_->count(comm, 1, nb, ext);
}

}  // namespace minipop::solver
