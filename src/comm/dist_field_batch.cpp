#include "src/comm/dist_field_batch.hpp"

#include "src/util/error.hpp"

namespace minipop::comm {

DistFieldBatch::DistFieldBatch(const grid::Decomposition& decomp, int rank,
                               int nb, int halo)
    : decomp_(&decomp), rank_(rank), halo_(halo), nb_(nb) {
  MINIPOP_REQUIRE(halo >= 1, "halo=" << halo);
  MINIPOP_REQUIRE(nb >= 1, "nb=" << nb);
  MINIPOP_REQUIRE(rank >= 0 && rank < decomp.nranks(), "rank=" << rank);
  // Every active block bounds the usable width, not just locally owned
  // ones: the exchange reads full-width rims of all neighbours.
  decomp.validate_halo(halo);
  block_ids_ = decomp.blocks_of_rank(rank);
  data_.reserve(block_ids_.size());
  for (std::size_t lb = 0; lb < block_ids_.size(); ++lb) {
    const auto& b = decomp.block(block_ids_[lb]);
    data_.emplace_back((b.nx + 2 * halo) * nb, b.ny + 2 * halo, 0.0);
    local_of_global_[block_ids_[lb]] = static_cast<int>(lb);
  }
}

const grid::BlockInfo& DistFieldBatch::info(int lb) const {
  return decomp_->block(block_ids_.at(lb));
}

int DistFieldBatch::local_index(int global_block_id) const {
  auto it = local_of_global_.find(global_block_id);
  return it == local_of_global_.end() ? -1 : it->second;
}

void DistFieldBatch::fill(double v) {
  for (auto& f : data_) f.fill(v);
}

bool DistFieldBatch::member_compatible(const DistFieldBatch& f) const {
  if (f.halo() != halo_ ||
      f.num_local_blocks() != num_local_blocks())
    return false;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& a = info(lb);
    const auto& b = f.info(lb);
    if (a.id != b.id || a.i0 != b.i0 || a.j0 != b.j0 || a.nx != b.nx ||
        a.ny != b.ny)
      return false;
  }
  return true;
}

void DistFieldBatch::copy_member_from(int m, const DistFieldBatch& src,
                                      int src_m) {
  MINIPOP_REQUIRE(m >= 0 && m < nb_, "member " << m << " of " << nb_);
  MINIPOP_REQUIRE(src_m >= 0 && src_m < src.nb_,
                  "member " << src_m << " of " << src.nb_);
  MINIPOP_REQUIRE(member_compatible(src), "incompatible source batch");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    util::Array2D<double>& dst = data_[lb];
    const util::Array2D<double>& sp = src.data_[lb];
    const int ncols = dst.nx() / nb_;  // padded cells per row
    for (int j = 0; j < dst.ny(); ++j)
      for (int i = 0; i < ncols; ++i)
        dst(i * nb_ + m, j) = sp(i * src.nb_ + src_m, j);
  }
}

void DistFieldBatch::copy_member_interior_from(int m, const DistFieldBatch& src,
                                               int src_m) {
  MINIPOP_REQUIRE(m >= 0 && m < nb_, "member " << m << " of " << nb_);
  MINIPOP_REQUIRE(src_m >= 0 && src_m < src.nb_,
                  "member " << src_m << " of " << src.nb_);
  MINIPOP_REQUIRE(decomp_ == src.decomp_ && rank_ == src.rank_,
                  "incompatible source batch");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    util::Array2D<double>& dst = data_[lb];
    const util::Array2D<double>& sp = src.data_[lb];
    const auto& b = info(lb);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i)
        dst((i + halo_) * nb_ + m, j + halo_) =
            sp((i + src.halo_) * src.nb_ + src_m, j + src.halo_);
  }
}

}  // namespace minipop::comm
