#include "src/evp/block_evp_preconditioner.hpp"

#include <algorithm>
#include <functional>

#include "src/util/error.hpp"

namespace minipop::evp {

util::Field regularize_land_depth(const util::Field& depth,
                                  double epsilon_fraction) {
  MINIPOP_REQUIRE(epsilon_fraction > 0.0 && epsilon_fraction < 1.0,
                  "epsilon_fraction=" << epsilon_fraction);
  double max_depth = 0.0;
  for (double d : depth) max_depth = std::max(max_depth, d);
  MINIPOP_REQUIRE(max_depth > 0.0, "depth field has no ocean");
  const double eps = epsilon_fraction * max_depth;
  util::Field out = depth;
  for (int j = 0; j < out.ny(); ++j)
    for (int i = 0; i < out.nx(); ++i)
      if (out(i, j) <= 0.0) out(i, j) = eps;
  return out;
}

namespace {

constexpr int kLanes = lanes::kPackLanes;

/// Split length n into ceil(n / max_tile) near-equal pieces.
std::vector<std::pair<int, int>> split(int n, int max_tile) {
  std::vector<std::pair<int, int>> pieces;
  if (max_tile <= 0 || n <= max_tile) {
    pieces.emplace_back(0, n);
    return pieces;
  }
  const int count = (n + max_tile - 1) / max_tile;
  int start = 0;
  for (int p = 0; p < count; ++p) {
    const int len = (n - start) / (count - p);
    pieces.emplace_back(start, len);
    start += len;
  }
  return pieces;
}

}  // namespace

BlockEvpPreconditioner::BlockEvpPreconditioner(
    const solver::DistOperator& op, const grid::CurvilinearGrid& grid,
    const util::Field& depth, const BlockEvpOptions& options)
    : op_(&op), options_(options) {
  // Regularized stencil: same metric terms and phi, land filled in.
  const util::Field reg_depth =
      regularize_land_depth(depth, options.land_epsilon);
  const grid::NinePointStencil reg_stencil(grid, reg_depth, op.phi());

  const auto& decomp = op.decomposition();
  const auto& ids = decomp.blocks_of_rank(op.rank());
  EvpOptions evp_opt;
  evp_opt.simplified = options.simplified;
  evp_opt.validate_accuracy = options.tile_accuracy;

  for (int lb = 0; lb < static_cast<int>(ids.size()); ++lb) {
    const auto& b = decomp.block(ids[lb]);
    // Copy the regularized coefficients of this block.
    std::array<util::Field, grid::kNumDirs> coeff;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      coeff[d] = util::Field(b.nx, b.ny);
      const auto& global = reg_stencil.coeff(static_cast<grid::Dir>(d));
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeff[d](i, j) = global(b.i0 + i, b.j0 + j);
    }
    // Marching round-off depends on the local coefficient anisotropy, so
    // a nominally-safe tile can still fail its accuracy self-check (e.g.
    // strongly stretched high-latitude rows). Self-heal by subdividing
    // the offending tile until it is stable.
    const std::function<void(int, int, int, int)> add_tile =
        [&](int ti0, int tj0, int tnx, int tny) {
          try {
            // The tile's solver lives only until it is packed.
            pack(lb, EvpTileSolver(coeff, ti0, tj0, tnx, tny, evp_opt));
          } catch (const util::Error&) {
            if (tnx <= 2 && tny <= 2) throw;
            ++subdivided_tiles_;
            if (tnx >= tny) {
              add_tile(ti0, tj0, tnx / 2, tny);
              add_tile(ti0 + tnx / 2, tj0, tnx - tnx / 2, tny);
            } else {
              add_tile(ti0, tj0, tnx, tny / 2);
              add_tile(ti0, tj0 + tny / 2, tnx, tny - tny / 2);
            }
          }
        };
    for (const auto& [ti0, tnx] : split(b.nx, options.max_tile))
      for (const auto& [tj0, tny] : split(b.ny, options.max_tile))
        add_tile(ti0, tj0, tnx, tny);
  }

  std::size_t y_size = 0, x_size = 0, k_size = 0;
  for (const Pack& p : packs_) {
    y_size = std::max(y_size, static_cast<std::size_t>(p.nx) * p.ny);
    x_size = std::max(x_size, lanes::padded_cells(p.nx, p.ny));
    k_size = std::max(k_size, static_cast<std::size_t>(p.nx + p.ny - 1));
  }
  y_.resize(y_size * kLanes);
  x_.resize(x_size * kLanes);
  f_.resize(k_size * kLanes);
  g_.resize(k_size * kLanes);
}

void BlockEvpPreconditioner::pack(int local_block, const EvpTileSolver& tile) {
  const int nx = tile.nx(), ny = tile.ny(), k = tile.guess_size();
  auto it = std::find_if(packs_.begin(), packs_.end(), [&](const Pack& p) {
    return p.nx == nx && p.ny == ny &&
           static_cast<int>(p.tiles.size()) < kLanes;
  });
  if (it == packs_.end()) {
    Pack p{nx, ny, {}, {}, {}, {}};
    const std::size_t cells = static_cast<std::size_t>(nx) * ny;
    p.coeff.assign(grid::kNumDirs * cells * kLanes, 0.0);
    std::fill_n(p.coeff.begin() + static_cast<int>(grid::Dir::kNorthEast) *
                                      cells * kLanes,
                cells * kLanes, 1.0);
    p.lu.assign(static_cast<std::size_t>(k) * k * kLanes, 0.0);
    p.perm.resize(static_cast<std::size_t>(k) * kLanes);
    for (int r = 0; r < k; ++r)
      for (int l = 0; l < kLanes; ++l) {
        p.lu[(static_cast<std::size_t>(r) * k + r) * kLanes + l] = 1.0;
        p.perm[r * kLanes + l] = r;
      }
    packs_.push_back(std::move(p));
    it = packs_.end() - 1;
  }
  Pack& p = *it;
  const int lane = static_cast<int>(p.tiles.size());
  const lanes::TileOperands src = tile.operands();
  const std::size_t coeff_entries =
      grid::kNumDirs * static_cast<std::size_t>(nx) * ny;
  for (std::size_t e = 0; e < coeff_entries; ++e)
    p.coeff[e * kLanes + lane] = src.coeff[e];
  for (std::size_t e = 0; e < static_cast<std::size_t>(k) * k; ++e)
    p.lu[e * kLanes + lane] = src.lu[e];
  for (int e = 0; e < k; ++e) p.perm[e * kLanes + lane] = src.perm[e];
  p.tiles.push_back({local_block, tile.i0(), tile.j0()});
  ++num_tiles_;
  if (tile.simplified()) ++simplified_tiles_;
  solve_flops_ += tile.solve_flops();
  setup_flops_ += tile.setup_flops();
}

std::vector<BlockEvpPreconditioner::TileWindow>
BlockEvpPreconditioner::tile_windows() const {
  std::vector<TileWindow> out;
  for (const Pack& p : packs_)
    for (const Tile& t : p.tiles)
      out.push_back({t.local_block, t.i0, t.j0, p.nx, p.ny});
  return out;
}

// Contract: every apply is block-local and communication-free — it
// never touches `comm` beyond cost accounting and reads no halo points;
// keep it that way.
void BlockEvpPreconditioner::apply_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "block-EVP batch mismatch");
  const int nb = in.nb();
  int m = 0;
  for (; m + kLanes <= nb; m += kLanes) apply_member_lanes(in, out, m);
  for (; m < nb; ++m) apply_tile_lanes(in, out, m);
  comm.costs().add_flops(solve_flops_ * static_cast<std::uint64_t>(nb));
}

namespace {

/// Bounds audit of one tile's window of a batch's block interior.
void assert_window([[maybe_unused]] const comm::DistFieldBatch& f,
                   [[maybe_unused]] int lb, [[maybe_unused]] int i0,
                   [[maybe_unused]] int j0, [[maybe_unused]] int nx,
                   [[maybe_unused]] int ny) {
  MINIPOP_ASSERT(lb >= 0 && lb < f.num_local_blocks());
  MINIPOP_ASSERT(i0 >= 0 && j0 >= 0 && i0 + nx <= f.info(lb).nx &&
                 j0 + ny <= f.info(lb).ny);
}

}  // namespace

void BlockEvpPreconditioner::apply_tile_lanes(const comm::DistFieldBatch& in,
                                              comm::DistFieldBatch& out,
                                              int m) {
  const int nb = in.nb();
  MINIPOP_ASSERT(m >= 0 && m < nb);
  for (const Pack& p : packs_) {
    const int nx = p.nx, ny = p.ny;
    const int used = static_cast<int>(p.tiles.size());
    const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * kLanes;
    // Gather: lane l is tile l's member m; unused lanes solve y = 0.
    for (int l = 0; l < kLanes; ++l) {
      if (l >= used) {
        for (std::ptrdiff_t c = 0; c < nx * ny; ++c) y_[c * kLanes + l] = 0.0;
        continue;
      }
      const Tile& t = p.tiles[l];
      assert_window(in, t.local_block, t.i0, t.j0, nx, ny);
      const std::ptrdiff_t s = in.stride(t.local_block);
      const double* src = in.interior(t.local_block) + t.j0 * s +
                          static_cast<std::ptrdiff_t>(t.i0) * nb + m;
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i)
          y_[(static_cast<std::ptrdiff_t>(j) * nx + i) * kLanes + l] =
              src[j * s + static_cast<std::ptrdiff_t>(i) * nb];
    }
    lanes::solve<kLanes, kLanes, 1>(p.operands(), y_, x_, f_, g_);
    // Scatter under the ocean mask.
    for (int l = 0; l < used; ++l) {
      const Tile& t = p.tiles[l];
      assert_window(out, t.local_block, t.i0, t.j0, nx, ny);
      const std::ptrdiff_t s = out.stride(t.local_block);
      double* dst = out.interior(t.local_block) + t.j0 * s +
                    static_cast<std::ptrdiff_t>(t.i0) * nb + m;
      const auto& mask = op_->block_mask(t.local_block);
      for (int j = 0; j < ny; ++j) {
        const unsigned char* mrow = &mask(t.i0, t.j0 + j);
        const double* xr = x_.data() + (j + 1) * row + kLanes + l;
        for (int i = 0; i < nx; ++i)
          dst[j * s + static_cast<std::ptrdiff_t>(i) * nb] =
              mrow[i] ? xr[static_cast<std::ptrdiff_t>(i) * kLanes] : 0.0;
      }
    }
  }
}

void BlockEvpPreconditioner::apply_member_lanes(
    const comm::DistFieldBatch& in, comm::DistFieldBatch& out, int m0) {
  const int nb = in.nb();
  MINIPOP_ASSERT(m0 >= 0 && m0 + kLanes <= nb);
  for (const Pack& p : packs_) {
    const int nx = p.nx, ny = p.ny;
    const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * kLanes;
    for (int lane = 0; lane < static_cast<int>(p.tiles.size()); ++lane) {
      const Tile& t = p.tiles[lane];
      // Gather: lane l is member m0 + l of this tile, so a cell's eight
      // lanes are eight adjacent batch entries.
      assert_window(in, t.local_block, t.i0, t.j0, nx, ny);
      const std::ptrdiff_t si = in.stride(t.local_block);
      const double* src = in.interior(t.local_block) + t.j0 * si +
                          static_cast<std::ptrdiff_t>(t.i0) * nb + m0;
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i)
          std::copy_n(src + j * si + static_cast<std::ptrdiff_t>(i) * nb,
                      kLanes,
                      y_.data() + (static_cast<std::ptrdiff_t>(j) * nx + i) *
                                      kLanes);
      lanes::solve<kLanes, kLanes, 0>(p.operands(lane), y_, x_, f_, g_);
      // Scatter under the ocean mask.
      assert_window(out, t.local_block, t.i0, t.j0, nx, ny);
      const std::ptrdiff_t so = out.stride(t.local_block);
      double* dst = out.interior(t.local_block) + t.j0 * so +
                    static_cast<std::ptrdiff_t>(t.i0) * nb + m0;
      const auto& mask = op_->block_mask(t.local_block);
      for (int j = 0; j < ny; ++j) {
        const unsigned char* mrow = &mask(t.i0, t.j0 + j);
        const double* xr = x_.data() + (j + 1) * row + kLanes;
        for (int i = 0; i < nx; ++i) {
          double* d = dst + j * so + static_cast<std::ptrdiff_t>(i) * nb;
          const double* xc = xr + static_cast<std::ptrdiff_t>(i) * kLanes;
          for (int l = 0; l < kLanes; ++l) d[l] = mrow[i] ? xc[l] : 0.0;
        }
      }
    }
  }
}

}  // namespace minipop::evp
