// Error Vector Propagation (EVP) direct solver on a small rectangular
// tile (paper §4.2, Algorithm 3, Eq. 4; Roache [31]).
//
// Solves B x = y where B is the nine-point operator restricted to an
// nx x ny tile with zero Dirichlet values outside. The method:
//
//   1. Guess x on the "initial guess" cells e (the south row and west
//      column of the tile).
//   2. March northeastward: the equation at cell (i-1, j-1) is solved for
//      its northeast neighbor (i, j), so all remaining cells follow
//      directly (Eq. 4) — no linear algebra.
//   3. The equations at the north row and east column (set f, as many as
//      |e|) are not consumed by the march; their residuals F depend
//      affinely on the guess: F = F0 + W g. The k x k influence matrix W
//      (k = nx + ny - 1) is formed once by marching unit vectors, and its
//      LU inverse turns the solve into: march, correct the guess by
//      -W^-1 F0, march again.
//
// Marching amplifies round-off exponentially with tile size; the paper
// reports ~1e-8 error at 12 x 12 in double precision, which is why EVP is
// used as a *block* preconditioner on small tiles rather than a global
// solver. bench_ablation_evp_blocksize reproduces the stability curve.
//
// The simplified variant drops the E/W/N/S coefficients, which for POP's
// B-grid operator are an order of magnitude below the corner ones
// (§4.3). In the paper's count a solve then costs 14 instead of 22 flops
// per point, with little convergence impact. The march still multiplies
// the zeroed coefficients, so a simplified 12 x 12 tile solves only ~4%
// faster here.
//
// The solve, the march and the unit-guess columns of W all run the lane
// kernel of evp_lanes.hpp: solve() and march_sweep() at width 1, W eight
// columns per march.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/evp/evp_lanes.hpp"
#include "src/grid/stencil.hpp"
#include "src/util/array2d.hpp"

namespace minipop::evp {

struct EvpOptions {
  /// Drop E/W/N/S coefficients inside the tile solve (paper §4.3). The
  /// drop only actually happens when the tile's edge coefficients are
  /// genuinely small (max|edge| < simplified_threshold * max|corner|) —
  /// on strongly anisotropic cells the edge couplings are NOT negligible
  /// and dropping them would wreck the preconditioner.
  bool simplified = false;
  double simplified_threshold = 0.3;
  /// Verify at construction that the tile solves to this relative
  /// accuracy on a test problem (catches marching round-off blow-up on
  /// oversized tiles with a clear error). <= 0 disables — used by the
  /// stability-study benches that intentionally build unstable tiles.
  double validate_accuracy = 1e-4;
};

class EvpTileSolver {
 public:
  /// Build from the nine coefficient fields of a block, restricted to the
  /// tile [i0, i0+nx) x [j0, j0+ny) (block-interior coordinates). The
  /// marching pivot is the NE coefficient, which must be nonzero at every
  /// cell except the tile's north row and east column; use a regularized
  /// (land-free) operator to guarantee that.
  EvpTileSolver(const std::array<util::Field, grid::kNumDirs>& block_coeff,
                int i0, int j0, int nx, int ny,
                const EvpOptions& options = {});

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int i0() const { return i0_; }
  int j0() const { return j0_; }
  /// Size of the initial-guess set e (= nx + ny - 1).
  int guess_size() const { return k_; }

  /// Solve B x = y for the tile. y and x are indexed tile-locally
  /// (nx x ny); x is overwritten.
  void solve(const util::Field& y, util::Field& x) const;

  /// Apply the (possibly simplified) tile operator: out = B in, with zero
  /// Dirichlet outside the tile. For tests and residual studies.
  void apply_operator(const util::Field& in, util::Field& out) const;

  /// One marching sweep (the Eq. 4 recurrence) with the current guess
  /// cells of x as input — the hot kernel inside solve(), exposed for
  /// kernel benchmarks (bench_kernels) and stability studies. x must
  /// be nx x ny with the south row / west column holding the guess.
  void march_sweep(const util::Field& y, util::Field& x) const;

  /// Flops of one solve in the paper's counting (22 per point full,
  /// 14 per point simplified).
  std::uint64_t solve_flops() const;

  /// Flops spent in set-up (preprocessing; paper: O(26 n^3)).
  std::uint64_t setup_flops() const { return setup_flops_; }

  /// Whether the simplified (edge-dropping) operator was actually used
  /// (the request downgrades itself on anisotropic tiles).
  bool simplified() const { return simplified_; }

  /// Relative error of the construction-time self-check solve (the
  /// paper's 1e-8-at-12x12 round-off figure is observable here).
  double measured_accuracy() const { return measured_accuracy_; }

  /// The tile's coefficients, W's LU factors and pivots in the lane
  /// kernel's width-1 layout (BlockEvpPreconditioner packs them).
  lanes::TileOperands operands() const {
    return {nx_, ny_, coeff_.data(), lu_.data(), perm_.data()};
  }

 private:
  int i0_, j0_, nx_, ny_, k_;
  bool simplified_;
  /// Nine tile-local coefficient planes of nx * ny entries (grid::Dir
  /// order); the simplified variant's edge planes stay zero.
  std::vector<double> coeff_;
  /// LU factors of W (k x k, row-major) and their row permutation.
  std::vector<double> lu_;
  std::vector<int> perm_;
  std::uint64_t setup_flops_ = 0;
  double measured_accuracy_ = 0.0;
};

}  // namespace minipop::evp
