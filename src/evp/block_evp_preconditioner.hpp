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
//
// Lanes: at set-up each tile is packed, as soon as it is built, into a
// pack of up to lanes::kPackLanes tiles of its shape, and its
// EvpTileSolver is released, so every coefficient is stored once. A pack
// holds the nine coefficient planes, W's LU factors and pivots of its
// tiles lane-fastest. The lane kernel (evp_lanes.hpp) then runs eight
// independent marching chains in lockstep, each lane bitwise equal to a
// width-1 EvpTileSolver::solve of its problem. A width-1 apply runs the
// packs with tiles as lanes. A batch runs each full group of eight
// members as lanes over one tile, sharing that tile's coefficients, and
// the nb mod 8 remaining members one at a time through the tile packs.
#pragma once

#include <cstdint>
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
  /// failing the self-check subdivide until they meet it.
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

  /// Tiles are gathered straight from the batch planes (member stride
  /// nb) into the lane scratch, solved eight lanes at a time and
  /// scattered back under the mask: full groups of eight members as
  /// lanes over each tile, the other members one at a time with tiles
  /// as lanes. Every member's bits equal a width-1 apply. Block-local
  /// and communication-free.
  void apply_batch(comm::Communicator& comm, const comm::DistFieldBatch& in,
                   comm::DistFieldBatch& out) override;

  std::string name() const override {
    return options_.simplified ? "block-evp" : "block-evp-full";
  }

  const BlockEvpOptions& options() const { return options_; }
  int num_tiles() const { return num_tiles_; }
  /// Where a tile sits: its local block and its window of that block's
  /// interior.
  struct TileWindow {
    int local_block, i0, j0, nx, ny;
  };
  /// Every tile's window, in pack and lane order.
  std::vector<TileWindow> tile_windows() const;
  /// Tiles that failed the marching accuracy self-check and were split
  /// (strong local anisotropy); purely informational.
  int subdivided_tiles() const { return subdivided_tiles_; }
  /// Tiles actually using the simplified (edge-dropping) marching — the
  /// per-tile anisotropy guard may veto the request.
  int simplified_tiles() const { return simplified_tiles_; }

  /// Total preprocessing flops across this rank's tiles (paper §4.3
  /// discusses the low setup cost; bench_fig06 reports it).
  std::uint64_t setup_flops() const { return setup_flops_; }

 private:
  /// Placement of one packed tile: lane l of a pack is tiles[l].
  struct Tile {
    int local_block, i0, j0;
  };
  /// Up to kPackLanes tiles of one shape, their operands lane-fastest
  /// (evp_lanes.hpp). Unused lanes hold cne = 1, LU = I and the identity
  /// permutation, so they solve a zero right-hand side to zero.
  struct Pack {
    int nx, ny;
    std::vector<Tile> tiles;
    std::vector<double> coeff;  ///< 9 planes of nx * ny * kPackLanes
    std::vector<double> lu;     ///< k * k * kPackLanes
    std::vector<int> perm;      ///< k * kPackLanes
    /// Operands at pitch kPackLanes. Read with lane step 1, lane l sees
    /// tile l; offset to `lane` and read with step 0, every lane sees
    /// that lane's tile.
    lanes::TileOperands operands(int lane = 0) const {
      return {nx, ny, coeff.data() + lane, lu.data() + lane,
              perm.data() + lane};
    }
  };

  void pack(int local_block, const EvpTileSolver& tile);
  /// Member m of the batch through every pack, tiles as lanes.
  void apply_tile_lanes(const comm::DistFieldBatch& in,
                        comm::DistFieldBatch& out, int m);
  /// Members m0 .. m0 + kPackLanes - 1 as lanes over each tile.
  void apply_member_lanes(const comm::DistFieldBatch& in,
                          comm::DistFieldBatch& out, int m0);

  const solver::DistOperator* op_;
  BlockEvpOptions options_;
  std::vector<Pack> packs_;
  int num_tiles_ = 0;
  int simplified_tiles_ = 0;
  /// Sum of the tiles' solve_flops(): an apply counts it per member.
  std::uint64_t solve_flops_ = 0;
  std::uint64_t setup_flops_ = 0;
  int subdivided_tiles_ = 0;
  /// Lane scratch sized for the largest pack: right-hand sides, padded
  /// solutions, f-set residuals and guess corrections.
  std::vector<double> y_, x_, f_, g_;
};

}  // namespace minipop::evp
