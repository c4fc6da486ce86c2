#include "src/solver/preconditioner.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

void IdentityPreconditioner::apply(comm::Communicator& /*comm*/,
                                   const comm::DistField& in,
                                   comm::DistField& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "identity precond field mismatch");
  const SpanPlan* plan = op_->span_plan();
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& mask = op_->block_mask(lb);
    // Gap-zero kernel: writes in at ocean and 0 at land exactly like the
    // masked copy, so the two paths are unconditionally bit-identical.
    if (plan)
      kernels::masked_copy_span((*plan)[lb].row_offset(),
                                (*plan)[lb].spans(), info.nx, info.ny,
                                in.interior(lb), in.stride(lb),
                                out.interior(lb), out.stride(lb));
    else
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i)
          out.at(lb, i, j) = mask(i, j) ? in.at(lb, i, j) : 0.0;
  }
}

void IdentityPreconditioner::apply_batch(comm::Communicator& /*comm*/,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "identity precond batch mismatch");
  const SpanPlan* plan = op_->span_plan();
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& mask = op_->block_mask(lb);
    if (plan)
      kernels::masked_copy_span_batch(
          (*plan)[lb].row_offset(), (*plan)[lb].spans(), in.nb(), info.nx,
          info.ny, in.interior(lb), in.stride(lb), out.interior(lb),
          out.stride(lb));
    else
      kernels::masked_copy_batch(mask.data(), mask.nx(), in.nb(), info.nx,
                                 info.ny, in.interior(lb), in.stride(lb),
                                 out.interior(lb), out.stride(lb));
  }
}

void IdentityPreconditioner::apply_batch(comm::Communicator& /*comm*/,
                                         const comm::DistFieldBatch32& in,
                                         comm::DistFieldBatch32& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "identity precond batch mismatch");
  const SpanPlan* plan = op_->span_plan();
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& mask = op_->block_mask(lb);
    if (plan)
      kernels::masked_copy_span_batch(
          (*plan)[lb].row_offset(), (*plan)[lb].spans(), in.nb(), info.nx,
          info.ny, in.interior(lb), in.stride(lb), out.interior(lb),
          out.stride(lb));
    else
      kernels::masked_copy_batch(mask.data(), mask.nx(), in.nb(), info.nx,
                                 info.ny, in.interior(lb), in.stride(lb),
                                 out.interior(lb), out.stride(lb));
  }
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
  MINIPOP_REQUIRE(in.compatible_with(out), "diagonal precond field mismatch");
  const SpanPlan* plan = op_->span_plan();
  std::uint64_t points = 0, active = 0;
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& inv = inv_diag_[lb];
    // Span path: inv*in over ocean, literal 0 in the gaps — the masked
    // loop multiplies by the stored inv = 0.0 there, which is the same
    // +0.0 because solver iterates are +0.0 on land.
    if (plan)
      kernels::diag_apply_span(inv.data(), inv.nx(),
                               (*plan)[lb].row_offset(),
                               (*plan)[lb].spans(), info.nx, info.ny,
                               in.interior(lb), in.stride(lb),
                               out.interior(lb), out.stride(lb));
    else
      for (int j = 0; j < info.ny; ++j)
        for (int i = 0; i < info.nx; ++i)
          out.at(lb, i, j) = inv(i, j) * in.at(lb, i, j);
    points += static_cast<std::uint64_t>(info.nx) * info.ny;
    active +=
        static_cast<std::uint64_t>(op_->block_spans()[lb].active_points());
  }
  // Paper convention: diagonal preconditioning is 1 op/point (T_p).
  comm.costs().add_flops(points);
  comm.costs().add_points(active, points);
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
  MINIPOP_REQUIRE(in.compatible_with(out), "diagonal precond batch mismatch");
  const SpanPlan* plan = op_->span_plan();
  const int nb = in.nb();
  std::uint64_t points = 0, active = 0;
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& inv = inv_diag_[lb];
    if (plan)
      kernels::diag_apply_span_batch(
          inv.data(), inv.nx(), (*plan)[lb].row_offset(),
          (*plan)[lb].spans(), nb, info.nx, info.ny, in.interior(lb),
          in.stride(lb), out.interior(lb), out.stride(lb));
    else
      kernels::diag_apply_batch(inv.data(), inv.nx(), nb, info.nx, info.ny,
                                in.interior(lb), in.stride(lb),
                                out.interior(lb), out.stride(lb));
    points += static_cast<std::uint64_t>(info.nx) * info.ny;
    active +=
        static_cast<std::uint64_t>(op_->block_spans()[lb].active_points());
  }
  comm.costs().add_flops(points * nb);
  comm.costs().add_points(active * nb, points * nb);
}

void DiagonalPreconditioner::apply_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch32& in,
                                         comm::DistFieldBatch32& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "diagonal precond batch mismatch");
  ensure_inv_diag32();
  const SpanPlan* plan = op_->span_plan();
  const int nb = in.nb();
  std::uint64_t points = 0, active = 0;
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& inv = inv_diag32_[lb];
    if (plan)
      kernels::diag_apply_span_batch(
          inv.data(), inv.nx(), (*plan)[lb].row_offset(),
          (*plan)[lb].spans(), nb, info.nx, info.ny, in.interior(lb),
          in.stride(lb), out.interior(lb), out.stride(lb));
    else
      kernels::diag_apply_batch(inv.data(), inv.nx(), nb, info.nx, info.ny,
                                in.interior(lb), in.stride(lb),
                                out.interior(lb), out.stride(lb));
    points += static_cast<std::uint64_t>(info.nx) * info.ny;
    active +=
        static_cast<std::uint64_t>(op_->block_spans()[lb].active_points());
  }
  comm.costs().add_flops(points * nb);
  comm.costs().add_points(active * nb, points * nb);
}

}  // namespace minipop::solver
