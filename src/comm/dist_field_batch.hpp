// Rank-local storage for a batch of B distributed 2D fields that share
// one grid/decomposition. This is the one field container: a DistField
// (dist_field.hpp) is the width-1 batch.
//
// Layout is member-fastest interleaved structure-of-arrays: per local
// block the padded plane is an Array2D<double> of logical shape
// ((nx + 2h) * nb, ny + 2h), and element (i, j) of member m lives at
// data(lb)((i + h) * nb + m, j + h). Consecutive members of one cell
// are adjacent in memory, so a batched kernel loads each 9-point
// coefficient once per cell and reuses it across all nb members, and a
// halo row becomes ni * nb contiguous elements that pack into ONE
// message per neighbor per exchange regardless of nb. At nb = 1 the
// plane is the classic padded plane of one field.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/grid/decomposition.hpp"
#include "src/util/array2d.hpp"

namespace minipop::comm {

class DistFieldBatch {
 public:
  /// Default POP halo width.
  static constexpr int kDefaultHalo = 2;

  DistFieldBatch(const grid::Decomposition& decomp, int rank, int nb,
                 int halo = kDefaultHalo);

  const grid::Decomposition& decomposition() const { return *decomp_; }
  int rank() const { return rank_; }
  int halo() const { return halo_; }
  int nb() const { return nb_; }
  int num_local_blocks() const { return static_cast<int>(data_.size()); }

  const grid::BlockInfo& info(int lb) const;
  util::Array2D<double>& data(int lb) { return data_[lb]; }
  const util::Array2D<double>& data(int lb) const { return data_[lb]; }

  /// Interior access (i, j in block-local interior coordinates, m the
  /// member index).
  double& at(int lb, int i, int j, int m) {
    return data_[lb]((i + halo_) * nb_ + m, j + halo_);
  }
  double at(int lb, int i, int j, int m) const {
    return data_[lb]((i + halo_) * nb_ + m, j + halo_);
  }

  /// Raw pointer to member 0 of interior cell (0, 0) of local block lb;
  /// rows are `stride(lb)` elements apart, cell columns nb() elements
  /// apart. This is the batched-kernel entry point.
  double* interior(int lb) {
    util::Array2D<double>& f = data_[lb];
    return f.data() + static_cast<std::ptrdiff_t>(halo_) * f.nx() +
           static_cast<std::ptrdiff_t>(halo_) * nb_;
  }
  const double* interior(int lb) const {
    const util::Array2D<double>& f = data_[lb];
    return f.data() + static_cast<std::ptrdiff_t>(halo_) * f.nx() +
           static_cast<std::ptrdiff_t>(halo_) * nb_;
  }
  /// Padded row pitch of local block lb, in elements (already includes
  /// the nb-fold widening).
  std::ptrdiff_t stride(int lb) const { return data_[lb].nx(); }

  /// Local index of a globally-identified block, or -1 if not owned.
  int local_index(int global_block_id) const;

  void fill(double v);

  /// True when `f` describes the same block set with the same halo, so
  /// member planes can be copied between the two. The check is
  /// structural (block ids, origins, shapes), not pointer identity, so
  /// fields built on different-but-identical Decomposition objects (one
  /// per ensemble member) interoperate.
  bool member_compatible(const DistFieldBatch& f) const;

  /// Copy the FULL padded plane (interior + halos) of `src`'s member
  /// `src_m` into this batch's member `m`, so halo freshness carries
  /// over. `src` must be member_compatible. Used to gather fields into
  /// a batch, by convergence-retirement compaction and by the
  /// per-member recovery sub-batches of the resilient decorator.
  void copy_member_from(int m, const DistFieldBatch& src, int src_m);

  /// Load the one plane of a width-1 `f` (a DistField) into member m.
  void load_member(int m, const DistFieldBatch& f) {
    copy_member_from(m, f, 0);
  }
  /// Store member m into the one plane of a width-1 `f`.
  void store_member(int m, DistFieldBatch& f) const {
    f.copy_member_from(0, *this, m);
  }

  /// Interior-only variant of copy_member_from that tolerates a
  /// different halo width (the comm-avoiding solvers migrate members
  /// between caller batches and deep-halo working batches). Halo cells
  /// of member m are left untouched.
  void copy_member_interior_from(int m, const DistFieldBatch& src, int src_m);

  /// Shape compatibility: same decomposition object, rank, halo, and
  /// batch width.
  bool compatible_with(const DistFieldBatch& other) const {
    return decomp_ == &other.decomposition() && rank_ == other.rank() &&
           halo_ == other.halo() && nb_ == other.nb();
  }

 private:
  const grid::Decomposition* decomp_;
  int rank_;
  int halo_;
  int nb_;
  std::vector<int> block_ids_;  ///< global id of each local block
  std::vector<util::Array2D<double>> data_;
  std::unordered_map<int, int> local_of_global_;
};

}  // namespace minipop::comm
