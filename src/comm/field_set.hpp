// FieldSet: one non-owning view over the two distributed containers —
// a scalar DistFieldT<T> (one member plane) or a DistFieldBatchT<T>
// (nb member-interleaved planes) — so the halo exchanger, the distri-
// buted operator, and the preconditioners speak ONE surface instead of
// duplicating scalar/batch overloads.
//
// The view erases the container difference behind the batch layout
// contract: element (i, j, m) lives at
//   data(lb)((i + halo) * nb() + m, j + halo)
// with nb() == 1 for a scalar backing, where the formula degenerates to
// the classic padded-plane addressing. Width-aware consumers (packers,
// kernels) written against nb() therefore reproduce the scalar path
// byte-for-byte at nb() == 1.
//
// The view holds a pointer to the backing container; the container must
// outlive every FieldSet over it. Copying the view is copying the
// pointer.
#pragma once

#include <cstddef>

#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"

namespace minipop::comm {

template <typename T>
class FieldSetT {
 public:
  FieldSetT() = default;
  /// View of a scalar field: one member, nb() == 1.
  FieldSetT(DistFieldT<T>& f) : scalar_(&f) {}  // NOLINT(runtime/explicit)
  /// View of a batch: nb() members per cell, member-fastest.
  FieldSetT(DistFieldBatchT<T>& f) : batch_(&f) {}  // NOLINT

  bool valid() const { return scalar_ != nullptr || batch_ != nullptr; }

  const grid::Decomposition& decomposition() const {
    return scalar_ ? scalar_->decomposition() : batch_->decomposition();
  }
  int rank() const { return scalar_ ? scalar_->rank() : batch_->rank(); }
  int halo() const { return scalar_ ? scalar_->halo() : batch_->halo(); }
  /// Members per cell: 1 for a scalar backing, the batch width else.
  int nb() const { return scalar_ ? 1 : batch_->nb(); }
  int num_local_blocks() const {
    return scalar_ ? scalar_->num_local_blocks()
                   : batch_->num_local_blocks();
  }
  const grid::BlockInfo& info(int lb) const {
    return scalar_ ? scalar_->info(lb) : batch_->info(lb);
  }
  util::Array2D<T>& data(int lb) const {
    return scalar_ ? scalar_->data(lb) : batch_->data(lb);
  }
  int local_index(int global_block_id) const {
    return scalar_ ? scalar_->local_index(global_block_id)
                   : batch_->local_index(global_block_id);
  }

  /// Raw pointer to member 0 of interior cell (0, 0) of local block lb
  /// — the kernel entry point. Rows are stride(lb) elements apart, cell
  /// columns nb() elements apart.
  T* interior(int lb) const {
    return scalar_ ? scalar_->interior(lb) : batch_->interior(lb);
  }
  /// Padded row pitch in elements (includes the nb-fold widening).
  std::ptrdiff_t stride(int lb) const {
    return scalar_ ? scalar_->stride(lb) : batch_->stride(lb);
  }

 private:
  DistFieldT<T>* scalar_ = nullptr;
  DistFieldBatchT<T>* batch_ = nullptr;
};

using FieldSet = FieldSetT<double>;

}  // namespace minipop::comm
