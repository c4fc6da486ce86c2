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
            Tile t;
            t.local_block = lb;
            t.solver = std::make_unique<EvpTileSolver>(coeff, ti0, tj0,
                                                       tnx, tny, evp_opt);
            setup_flops_ += t.solver->setup_flops();
            tiles_.push_back(std::move(t));
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
}

int BlockEvpPreconditioner::simplified_tiles() const {
  int n = 0;
  for (const auto& t : tiles_)
    if (t.solver->simplified()) ++n;
  return n;
}

// Contract: every apply is block-local and communication-free — it
// never touches `comm` beyond cost accounting and reads no halo points.
// The overlapped solvers rely on this to run it while reductions are in
// flight (split-phase engine); keep it that way.
template <typename In, typename Out>
void BlockEvpPreconditioner::apply_tiles(comm::Communicator& comm,
                                         const In& in, Out& out,
                                         int nb) const {
  std::uint64_t flops = 0;
  util::Field y, x;
  for (const auto& t : tiles_) {
    const auto& s = *t.solver;
    if (y.nx() != s.nx() || y.ny() != s.ny()) {
      y = util::Field(s.nx(), s.ny());
      x = util::Field(s.nx(), s.ny());
    }
    // Row-pointer gather/scatter: this runs per tile per iteration, so
    // skip the per-element block lookup of at().
    const double* in_p = in.interior(t.local_block) +
                         static_cast<std::ptrdiff_t>(s.i0()) * nb;
    const std::ptrdiff_t in_s = in.stride(t.local_block);
    double* out_p = out.interior(t.local_block) +
                    static_cast<std::ptrdiff_t>(s.i0()) * nb;
    const std::ptrdiff_t out_s = out.stride(t.local_block);
    const auto& mask = op_->block_mask(t.local_block);
    for (int m = 0; m < nb; ++m) {
      // Contiguous rows at nb == 1 (the common single-solve case) keep
      // the copies vectorizable; the values moved are the same.
      for (int j = 0; j < s.ny(); ++j) {
        const double* row = in_p + (s.j0() + j) * in_s + m;
        if (nb == 1)
          for (int i = 0; i < s.nx(); ++i) y(i, j) = row[i];
        else
          for (int i = 0; i < s.nx(); ++i)
            y(i, j) = row[static_cast<std::ptrdiff_t>(i) * nb];
      }
      s.solve(y, x);
      for (int j = 0; j < s.ny(); ++j) {
        double* row = out_p + (s.j0() + j) * out_s + m;
        const unsigned char* mrow =
            mask.data() + (s.j0() + j) * mask.nx() + s.i0();
        if (nb == 1)
          for (int i = 0; i < s.nx(); ++i) row[i] = mrow[i] ? x(i, j) : 0.0;
        else
          for (int i = 0; i < s.nx(); ++i)
            row[static_cast<std::ptrdiff_t>(i) * nb] =
                mrow[i] ? x(i, j) : 0.0;
      }
    }
    flops += s.solve_flops() * static_cast<std::uint64_t>(nb);
  }
  comm.costs().add_flops(flops);
}

void BlockEvpPreconditioner::apply(comm::Communicator& comm,
                                   const comm::DistField& in,
                                   comm::DistField& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "block-EVP field mismatch");
  apply_tiles(comm, in, out, 1);
}

void BlockEvpPreconditioner::apply_batch(comm::Communicator& comm,
                                         const comm::DistFieldBatch& in,
                                         comm::DistFieldBatch& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "block-EVP batch mismatch");
  apply_tiles(comm, in, out, in.nb());
}

}  // namespace minipop::evp
