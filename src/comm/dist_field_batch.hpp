// Rank-local storage for a batch of B distributed 2D fields that share
// one grid/decomposition — the multi-RHS counterpart of DistField.
//
// Layout is member-fastest interleaved structure-of-arrays: per local
// block the padded plane is an Array2D<T> of logical shape
// ((nx + 2h) * nb, ny + 2h), and element (i, j) of member m lives at
// data(lb)((i + h) * nb + m, j + h). Consecutive members of one cell
// are adjacent in memory, so a batched kernel loads each 9-point
// coefficient once per cell and reuses it across all nb members, and a
// halo row becomes ni * nb contiguous elements that pack into ONE
// message per neighbor per exchange regardless of nb.
//
// Batches are templated on the storage scalar exactly like DistFieldT;
// DistFieldBatch (double) is the only instantiation.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/grid/decomposition.hpp"
#include "src/util/array2d.hpp"

namespace minipop::comm {

template <typename T>
class DistFieldT;
using DistField = DistFieldT<double>;

template <typename T>
class DistFieldBatchT {
 public:
  using value_type = T;
  /// Default POP halo width (matches DistField::kDefaultHalo).
  static constexpr int kDefaultHalo = 2;

  DistFieldBatchT(const grid::Decomposition& decomp, int rank, int nb,
                  int halo = kDefaultHalo);

  const grid::Decomposition& decomposition() const { return *decomp_; }
  int rank() const { return rank_; }
  int halo() const { return halo_; }
  int nb() const { return nb_; }
  int num_local_blocks() const { return static_cast<int>(data_.size()); }

  const grid::BlockInfo& info(int lb) const;
  util::Array2D<T>& data(int lb) { return data_[lb]; }
  const util::Array2D<T>& data(int lb) const { return data_[lb]; }

  /// Interior access (i, j in block-local interior coordinates, m the
  /// member index).
  T& at(int lb, int i, int j, int m) {
    return data_[lb]((i + halo_) * nb_ + m, j + halo_);
  }
  T at(int lb, int i, int j, int m) const {
    return data_[lb]((i + halo_) * nb_ + m, j + halo_);
  }

  /// Raw pointer to member 0 of interior cell (0, 0) of local block lb;
  /// rows are `stride(lb)` elements apart, cell columns nb() elements
  /// apart. This is the batched-kernel entry point.
  T* interior(int lb) {
    util::Array2D<T>& f = data_[lb];
    return f.data() + static_cast<std::ptrdiff_t>(halo_) * f.nx() +
           static_cast<std::ptrdiff_t>(halo_) * nb_;
  }
  const T* interior(int lb) const {
    const util::Array2D<T>& f = data_[lb];
    return f.data() + static_cast<std::ptrdiff_t>(halo_) * f.nx() +
           static_cast<std::ptrdiff_t>(halo_) * nb_;
  }
  /// Padded row pitch of local block lb, in elements (already includes
  /// the nb-fold widening).
  std::ptrdiff_t stride(int lb) const { return data_[lb].nx(); }

  /// Local index of a globally-identified block, or -1 if not owned.
  int local_index(int global_block_id) const;

  void fill(T v);

  /// True when `f` describes the same block set with the same halo, so
  /// its plane can be loaded into / stored out of a member slot. The
  /// check is structural (block ids, origins, shapes), not pointer
  /// identity, so fields built on different-but-identical Decomposition
  /// objects (one per ensemble member) interoperate.
  bool member_compatible(const DistFieldT<T>& f) const;

  /// Copy the FULL padded plane (interior + halos) of `f` into member
  /// slot m, so halo freshness carries over into the batch.
  void load_member(int m, const DistFieldT<T>& f);

  /// Copy member slot m's full padded plane back into `f`.
  void store_member(int m, DistFieldT<T>& f) const;

  /// Copy the full padded plane of `src`'s member `src_m` into this
  /// batch's member `m` (used by convergence-retirement compaction and
  /// by the per-member recovery sub-batches of the resilient decorator).
  void copy_member_from(int m, const DistFieldBatchT<T>& src, int src_m);

  /// Interior-only variant of copy_member_from that tolerates a
  /// different halo width (the comm-avoiding solvers migrate members
  /// between caller batches and deep-halo working batches). Halo cells
  /// of member m are left untouched.
  void copy_member_interior_from(int m, const DistFieldBatchT<T>& src,
                                 int src_m);

  /// Shape compatibility: same decomposition object, rank, halo, and
  /// batch width.
  bool compatible_with(const DistFieldBatchT& other) const {
    return decomp_ == &other.decomposition() && rank_ == other.rank() &&
           halo_ == other.halo() && nb_ == other.nb();
  }

 private:
  const grid::Decomposition* decomp_;
  int rank_;
  int halo_;
  int nb_;
  std::vector<int> block_ids_;  ///< global id of each local block
  std::vector<util::Array2D<T>> data_;
  std::unordered_map<int, int> local_of_global_;
};

using DistFieldBatch = DistFieldBatchT<double>;

extern template class DistFieldBatchT<double>;

}  // namespace minipop::comm
