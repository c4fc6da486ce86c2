// Land-span execution plans (DESIGN.md §14).
//
// The block decomposition eliminates all-land *blocks*, but inside every
// surviving block a dense sweep would still walk full rows and pay a
// per-cell mask load + select — on POP-like bathymetries 30–50% of the
// swept points are land, so a third of the hot-path bandwidth would move
// zeros. A BlockSpans compresses a block's ocean mask into, per row, a
// compact list of contiguous ocean runs ("spans"); every kernel in
// kernels.hpp iterates mask-free and unit-stride over those runs.
//
// The plan is computed once per operator and grown region (DistOperator::
// span_plan(e)) from the land mask, so the sweeps visit precisely the
// cells whose masked contribution is non-trivial — the bitwise-identity
// argument against the masked reference family lives with the kernel
// declarations in kernels.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "src/solver/kernels.hpp"

namespace minipop::solver {

/// Per-block compressed ocean geometry: for each row j of an nx × ny
/// region, the contiguous ocean spans, stored flat with a CSR-style
/// row_offset table (row j's spans are spans()[row_offset()[j] ..
/// row_offset()[j+1])). Rows with no ocean have zero spans; a full-ocean
/// row degenerates to a single span of length nx, so dense blocks run
/// at dense-kernel speed.
class BlockSpans {
 public:
  BlockSpans() = default;

  /// Build from a raw mask plane: mask[j * mask_stride + i] != 0 marks
  /// ocean. The plane may be a sub-window of a larger field (stride >
  /// nx), which is how DistOperator derives the plan of every grown
  /// region from one padded mask.
  BlockSpans(const unsigned char* mask, std::ptrdiff_t mask_stride, int nx,
             int ny);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  /// Total ocean cells covered by the spans.
  long active_points() const { return active_points_; }
  int num_spans() const { return static_cast<int>(spans_.size()); }
  /// True when every cell is ocean (one full-width span per row).
  bool full() const { return active_points_ == long(nx_) * ny_; }

  /// CSR row table, size ny()+1.
  const int* row_offset() const { return row_offset_.data(); }
  const kernels::Span* spans() const { return spans_.data(); }

  /// Structural audit (used by MINIPOP_BOUNDS_CHECK builds): throws
  /// unless the spans exactly cover the mask-true cells of the given
  /// plane. O(nx*ny); never called from hot paths in release builds.
  void validate(const unsigned char* mask, std::ptrdiff_t mask_stride)
      const;

 private:
  int nx_ = 0;
  int ny_ = 0;
  long active_points_ = 0;
  std::vector<int> row_offset_;  // size ny_+1
  std::vector<kernels::Span> spans_;
};

/// One BlockSpans per local block, indexed like the operator's local
/// block arrays.
using SpanPlan = std::vector<BlockSpans>;

}  // namespace minipop::solver
