// The paper's per-iteration cost equations (Eqs. 2, 3, 5, 6) in
// component form: computation (theta), boundary updates (alpha_p2p,
// beta) and global reductions (tree hops), per solver x preconditioner
// configuration.
#pragma once

#include <string>

#include "src/perf/machine.hpp"

namespace minipop::perf {

/// The four solver configurations the paper evaluates.
enum class Config { kCgDiag, kCgEvp, kPcsiDiag, kPcsiEvp };
inline constexpr Config kAllConfigs[] = {Config::kCgDiag, Config::kCgEvp,
                                         Config::kPcsiDiag,
                                         Config::kPcsiEvp};
std::string to_string(Config c);
bool is_pcsi(Config c);
bool is_evp(Config c);

/// Paper-counted operations per grid point per iteration:
///   ChronGear: 15 + T_p;  P-CSI: 12 + T_p;  T_p: diagonal 1, EVP 14.
/// The ChronGear masking cost (2 ops/pt per reduction) is accounted in
/// the reduction component, matching Eq. 2's total of 18 for cg+diag.
double compute_ops_per_point(Config c);

/// Ops per point spent on the local masking part of a global sum.
inline constexpr double kMaskOpsPerPoint = 2.0;

/// Global reductions per solver iteration (the convergence check rides
/// in ChronGear's fused reduction; P-CSI reduces only when checking).
double reductions_per_iteration(Config c, int check_frequency);

struct IterationCosts {
  double computation;  ///< seconds
  double halo;
  double reduction;
  double total() const { return computation + halo + reduction; }
};

/// Cost of ONE solver iteration on `p` ranks for a grid of `points`
/// total cells (paper's N^2). Halo: 4 messages of (8 sqrt(points) /
/// sqrt(p)) points each iteration (halo width 2, Eq. in §2.2). On one
/// rank nothing is sent, so message and reduction-tree latency are
/// charged only when p > 1.
IterationCosts iteration_costs(const MachineProfile& m, Config c,
                               long points, int p, int check_frequency);

/// Land-aware variant (DESIGN.md §14): with span execution the sweeps
/// and masked reductions only touch ocean cells, so the computation and
/// reduction-masking terms scale by `ocean_fraction` =
/// active_points / swept_points in (0, 1] (CostCounters supplies the
/// measured ratio). Message latency and halo bytes are unchanged —
/// rims are exchanged dense, land included, and the latency term never
/// depended on point counts. ocean_fraction = 1 is exactly the dense
/// model above.
IterationCosts iteration_costs(const MachineProfile& m, Config c,
                               long points, int p, int check_frequency,
                               double ocean_fraction);

/// Amortized cost of one P-CSI iteration under the depth-k
/// communication-avoiding schedule (DESIGN.md §13): one grouped
/// exchange of {x, dx} with width-k rims buys k iterations, so the
/// per-iteration message latency divides by k, while the sweeps on
/// shrinking grown regions (extensions k - 1, ..., 0) add redundant
/// perimeter flops — extension e costs (s+2e)^2 - s^2 = 4es+4e^2 extra
/// points on an s x s subdomain (s = sqrt(points/p)), averaging
/// ~2s(k - 1) + O(k^2) redundant points per sweep over a group.
/// k == 1 IS the baseline schedule and returns iteration_costs()
/// exactly (the depth-1 schedule does no redundant work and no grouping).
/// Only meaningful for P-CSI configs: ChronGear's per-iteration
/// reduction forces a group boundary every iteration, so is_pcsi(c) is
/// required.
IterationCosts comm_avoid_iteration_costs(const MachineProfile& m, Config c,
                                          long points, int p,
                                          int check_frequency, int k);

/// Land-aware depth-k model: interior AND redundant perimeter flops
/// scale by `ocean_fraction` (the extended sweeps skip ghost-rim land
/// exactly like interior land); the grouped-exchange bytes stay dense.
IterationCosts comm_avoid_iteration_costs(const MachineProfile& m, Config c,
                                          long points, int p,
                                          int check_frequency, int k,
                                          double ocean_fraction);

/// Model-driven ghost-zone depth: the k in [1, max_depth] minimizing
/// comm_avoid_iteration_costs().total(); ties break toward the
/// smaller k (less redundant work, less memory). Non-P-CSI configs
/// return 1 — the comm-avoiding schedule needs a reduction-free
/// iteration body.
int choose_halo_depth(const MachineProfile& m, Config c, long points, int p,
                      int check_frequency, int max_depth = 4);

/// Land-aware depth choice: cheaper ocean-fraction-scaled computation
/// shifts the latency/redundant-flops break-even toward DEEPER ghost
/// zones on land-heavy grids (redundant work is discounted by the same
/// factor the interior is, while the latency saved per skipped exchange
/// is undiminished).
int choose_halo_depth(const MachineProfile& m, Config c, long points, int p,
                      int check_frequency, int max_depth,
                      double ocean_fraction);

}  // namespace minipop::perf
