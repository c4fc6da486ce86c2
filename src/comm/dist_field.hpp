// Rank-local storage for a distributed 2D field: the blocks this rank
// owns, each padded with a halo of configurable width (POP keeps two
// halo layers; see paper §2.2).
//
// Interior cell (i, j) of local block lb lives at data(lb)(i + h, j + h).
//
// The container is templated on the storage scalar; DistField (double)
// is its only instantiation.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/grid/decomposition.hpp"
#include "src/util/array2d.hpp"

namespace minipop::comm {

template <typename T>
class DistFieldT {
 public:
  using value_type = T;
  /// Default POP halo width.
  static constexpr int kDefaultHalo = 2;

  DistFieldT(const grid::Decomposition& decomp, int rank,
             int halo = kDefaultHalo);

  const grid::Decomposition& decomposition() const { return *decomp_; }
  int rank() const { return rank_; }
  int halo() const { return halo_; }
  /// Members per cell: a DistField is the width-1 case of the batch
  /// layout, so width-generic sweeps accept it as it is.
  int nb() const { return 1; }
  int num_local_blocks() const { return static_cast<int>(data_.size()); }

  const grid::BlockInfo& info(int lb) const;
  util::Array2D<T>& data(int lb) { return data_[lb]; }
  const util::Array2D<T>& data(int lb) const { return data_[lb]; }

  /// Interior access (i, j in block-local interior coordinates).
  T& at(int lb, int i, int j) { return data_[lb](i + halo_, j + halo_); }
  T at(int lb, int i, int j) const {
    return data_[lb](i + halo_, j + halo_);
  }

  /// Raw pointer to interior cell (0, 0) of local block lb; rows are
  /// `stride(lb)` elements apart. This is the kernel-layer entry point.
  T* interior(int lb) {
    util::Array2D<T>& f = data_[lb];
    return f.data() + static_cast<std::ptrdiff_t>(halo_) * f.nx() + halo_;
  }
  const T* interior(int lb) const {
    const util::Array2D<T>& f = data_[lb];
    return f.data() + static_cast<std::ptrdiff_t>(halo_) * f.nx() + halo_;
  }
  /// Padded row pitch of local block lb, in elements.
  std::ptrdiff_t stride(int lb) const { return data_[lb].nx(); }

  /// Local index of a globally-identified block, or -1 if not owned.
  int local_index(int global_block_id) const;

  void fill(T v);

  /// Copy interiors from a full-domain (double) field, converting to T
  /// (halos untouched).
  void load_global(const util::Field& global);

  /// Write interiors of the owned blocks into a full-domain (double)
  /// field.
  void store_global(util::Field& global) const;

  /// Shape compatibility (same decomposition object, rank, halo).
  bool compatible_with(const DistFieldT& other) const {
    return decomp_ == other.decomp_ && rank_ == other.rank_ &&
           halo_ == other.halo_;
  }

 private:
  const grid::Decomposition* decomp_;
  int rank_;
  int halo_;
  std::vector<int> block_ids_;  ///< global id of each local block
  std::vector<util::Array2D<T>> data_;
  std::unordered_map<int, int> local_of_global_;
};

extern template class DistFieldT<double>;

using DistField = DistFieldT<double>;

}  // namespace minipop::comm
