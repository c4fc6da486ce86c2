// Vector operations on distributed batches (block interiors only); a
// DistField is the width-1 batch. Flop accounting follows the paper's
// per-point operation counts.
#pragma once

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/solver/span_plan.hpp"

namespace minipop::solver {

// Every update op runs over a land-span plan (DESIGN.md §14, the
// operator's DistOperator::span_plan()) and skips land cells entirely:
// solver iterates are +0.0 on land, and a dense sweep would only ever
// rewrite that zero.
//
// Updates take per-member coefficients (a[m] scales member m; a
// DistField passes one) and an optional `active` mask of nb() bytes:
// members with active[m] == 0 are neither written nor counted, which is
// how the batched cores freeze converged members. A null mask updates
// every member.

/// y_m = a[m]*x_m + b[m]*y_m. Covers the solvers' vector updates: axpy
/// (b = 1), xpby (a = 1), and the general P-CSI update.
void lincomb(comm::Communicator& comm, const double* a,
             const comm::DistFieldBatch& x, const double* b,
             comm::DistFieldBatch& y, const SpanPlan& plan,
             const unsigned char* active = nullptr);

/// y_m += a[m]*x_m.
void axpy(comm::Communicator& comm, const double* a,
          const comm::DistFieldBatch& x, comm::DistFieldBatch& y,
          const SpanPlan& plan, const unsigned char* active = nullptr);

/// Fused y_m = a[m]*x_m + b[m]*y_m followed by z_m += c[m]*y_m in one
/// sweep (the direction and iterate updates of P-CSI steps 7-8 and
/// ChronGear steps 13-16). Bit-identical to lincomb then axpy. With
/// ext > 0 the sweep covers the interiors grown by ext cells (0 < ext
/// <= the fields' halo), and `plan` must be the operator's
/// span_plan(ext); the cells beyond the interiors count as redundant
/// flops.
void lincomb_axpy(comm::Communicator& comm, const double* a,
                  const comm::DistFieldBatch& x, const double* b,
                  comm::DistFieldBatch& y, const double* c,
                  comm::DistFieldBatch& z, const SpanPlan& plan,
                  const unsigned char* active = nullptr, int ext = 0);

/// x_m *= a[m].
void scale(comm::Communicator& comm, const double* a, comm::DistFieldBatch& x,
           const SpanPlan& plan, const unsigned char* active = nullptr);

/// y = x over all members' interiors (free of flops).
void copy_interior(const comm::DistFieldBatch& x, comm::DistFieldBatch& y);

/// x = v in all members' interiors.
void fill_interior(comm::DistFieldBatch& x, double v);

/// Member m's interior := v (the batched cores' zero-RHS members).
void fill_member(comm::DistFieldBatch& x, int m, double v);

}  // namespace minipop::solver
