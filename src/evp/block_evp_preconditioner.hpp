// Block-EVP preconditioner (paper §4): M = blockdiag(B~_i), where each
// B~_i is the nine-point operator restricted to a tile and solved
// *exactly* by the EVP marching method. Applying M^-1 is embarrassingly
// parallel (each rank solves only its own tiles) and costs O(n^2) per
// tile — versus O(n^4) for LU — which is what makes it viable per
// iteration.
//
// Land handling: marching cannot cross land (identity rows have no NE
// pivot), so the preconditioner tiles are assembled from a *regularized*
// operator in which land depth is replaced by a small positive epsilon.
// The regularized matrix is SPD, agrees with the true operator on the
// open ocean (the spurious coastal coupling is O(epsilon)), and every
// tile of it is exactly EVP-solvable. The outer Krylov/Chebyshev solver
// still uses the exact masked operator; only M changes, and a
// preconditioner only needs to be a good SPD approximation. Preconditioner
// output is re-masked to keep iterates zero on land.
//
// Tiling: the paper applies EVP to one process block. Marching round-off
// grows with tile size (stable to ~1e-8 at 12x12), so large process
// blocks are subdivided into tiles of at most `max_tile` cells per side —
// a strictly finer block-diagonal preconditioner with the same parallel
// structure. Set max_tile = 0 to force whole-block tiles (the paper's
// configuration at high core counts).
#pragma once

#include <memory>
#include <vector>

#include "src/evp/evp_solver.hpp"
#include "src/solver/preconditioner.hpp"

namespace minipop::evp {

struct BlockEvpOptions {
  /// Maximum tile side; process blocks larger than this are subdivided.
  /// 0 means "never subdivide" (whole-block EVP, as in the paper).
  int max_tile = 12;
  /// Use the simplified (corner-only) marching operator (paper §4.3).
  bool simplified = true;
  /// Land depth replacement as a fraction of the deepest ocean cell.
  double land_epsilon = 0.02;
  /// Required relative accuracy of each tile's marching solve; tiles
  /// failing the self-check subdivide until they meet it. Marching
  /// round-off is also an asymmetry of the effective preconditioner:
  /// Krylov methods that are sensitive to non-SPD preconditioners
  /// (e.g. pipelined CG) need this tightened to ~1e-8.
  double tile_accuracy = 1e-4;
};

/// Depth field with land (<= 0) replaced by epsilon_fraction * max depth.
util::Field regularize_land_depth(const util::Field& depth,
                                  double epsilon_fraction);

class BlockEvpPreconditioner final : public solver::Preconditioner {
 public:
  /// `op` is the true (masked) distributed operator; `grid` and `depth`
  /// are the inputs its stencil was assembled from, used to build the
  /// regularized preconditioner stencil with the same phi.
  BlockEvpPreconditioner(const solver::DistOperator& op,
                         const grid::CurvilinearGrid& grid,
                         const util::Field& depth,
                         const BlockEvpOptions& options = {});

  void apply(comm::Communicator& comm, const comm::DistField& in,
             comm::DistField& out) override;

  /// Batched apply: each tile is gathered straight from the batch
  /// planes (member stride nb), solved and scattered back member by
  /// member, in the same per-member operation order as apply().
  void apply_batch(comm::Communicator& comm, const comm::DistFieldBatch& in,
                   comm::DistFieldBatch& out) override;

  std::string name() const override {
    return options_.simplified ? "block-evp" : "block-evp-full";
  }

  const BlockEvpOptions& options() const { return options_; }
  int num_tiles() const { return static_cast<int>(tiles_.size()); }
  /// Tiles that failed the marching accuracy self-check and were split
  /// (strong local anisotropy); purely informational.
  int subdivided_tiles() const { return subdivided_tiles_; }
  /// Tiles actually using the simplified (edge-dropping) marching — the
  /// per-tile anisotropy guard may veto the request.
  int simplified_tiles() const;

  /// Total preprocessing flops across this rank's tiles (paper §4.3
  /// discusses the low setup cost; bench_fig06 reports it).
  std::uint64_t setup_flops() const { return setup_flops_; }

 private:
  struct Tile {
    int local_block;
    std::unique_ptr<EvpTileSolver> solver;
  };

  /// Shared tile loop of every apply, over planes with `nb` members per
  /// cell (nb = 1 for a DistField): for each tile and member, gather the
  /// tile's right-hand side (member stride nb), solve, and scatter the
  /// masked solution — each member's operations in the same order as a
  /// lone apply. Block-local and communication-free.
  template <typename In, typename Out>
  void apply_tiles(comm::Communicator& comm, const In& in, Out& out,
                   int nb) const;

  const solver::DistOperator* op_;
  BlockEvpOptions options_;
  std::vector<Tile> tiles_;
  std::uint64_t setup_flops_ = 0;
  int subdivided_tiles_ = 0;
};

}  // namespace minipop::evp
