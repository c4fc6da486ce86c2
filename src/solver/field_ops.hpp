// Vector operations on distributed fields (block interiors only).
// Flop accounting follows the paper's per-point operation counts.
#pragma once

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/solver/span_plan.hpp"

namespace minipop::solver {

// Every update op runs over a land-span plan (DESIGN.md §14, the
// operator's DistOperator::span_plan()) and skips land cells entirely:
// solver iterates are +0.0 on land, and a dense sweep would only ever
// rewrite that zero.

/// y = a*x + b*y. Covers the solvers' vector updates: axpy (b=1),
/// xpby (a=1), and the general P-CSI update.
void lincomb(comm::Communicator& comm, double a, const comm::DistField& x,
             double b, comm::DistField& y, const SpanPlan& plan);

/// y = a*x + y.
void axpy(comm::Communicator& comm, double a, const comm::DistField& x,
          comm::DistField& y, const SpanPlan& plan);

/// Fused y = a*x + b*y followed by z += c*y in one sweep (the direction
/// and iterate updates of P-CSI steps 7-8 and ChronGear steps 13-16).
/// Bit-identical to lincomb(a, x, b, y) then axpy(c, y, z).
void lincomb_axpy(comm::Communicator& comm, double a,
                  const comm::DistField& x, double b, comm::DistField& y,
                  double c, comm::DistField& z, const SpanPlan& plan);

/// x *= a.
void scale(comm::Communicator& comm, double a, comm::DistField& x,
           const SpanPlan& plan);

/// y = x (interiors; free of flops).
void copy_interior(const comm::DistField& x, comm::DistField& y);

/// x = v everywhere in the interiors.
void fill_interior(comm::DistField& x, double v);

/// y = x over all members' interiors.
void copy_interior(const comm::DistFieldBatch& x, comm::DistFieldBatch& y);

}  // namespace minipop::solver
