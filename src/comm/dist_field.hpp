// A distributed 2D field: the blocks this rank owns, each padded with a
// halo of configurable width (POP keeps two halo layers; see paper §2.2).
//
// A DistField IS the width-1 DistFieldBatch. At nb = 1 the member-
// interleaved batch plane is exactly the classic padded plane — interior
// cell (i, j) of local block lb lives at data(lb)(i + h, j + h) — so the
// halo engine, the operator sweeps, the preconditioners and the solver
// stack take a DistField as it is. The subclass adds no data, only the
// single-field constructor, 3-index access and global load/store.
#pragma once

#include "src/comm/dist_field_batch.hpp"
#include "src/util/array2d.hpp"

namespace minipop::comm {

class DistField : public DistFieldBatch {
 public:
  DistField(const grid::Decomposition& decomp, int rank,
            int halo = kDefaultHalo)
      : DistFieldBatch(decomp, rank, 1, halo) {}

  /// Interior access (i, j in block-local interior coordinates).
  double& at(int lb, int i, int j) {
    return data(lb)(i + halo(), j + halo());
  }
  double at(int lb, int i, int j) const {
    return data(lb)(i + halo(), j + halo());
  }

  /// Copy interiors from a full-domain field (halos untouched).
  void load_global(const util::Field& global);

  /// Write interiors of the owned blocks into a full-domain field.
  void store_global(util::Field& global) const;
};

}  // namespace minipop::comm
