#include "src/perf/cost_equations.hpp"

#include <cmath>

#include "src/util/error.hpp"

namespace minipop::perf {

std::string to_string(Config c) {
  switch (c) {
    case Config::kCgDiag: return "chrongear+diagonal";
    case Config::kCgEvp: return "chrongear+evp";
    case Config::kPcsiDiag: return "pcsi+diagonal";
    case Config::kPcsiEvp: return "pcsi+evp";
  }
  return "?";
}

bool is_pcsi(Config c) {
  return c == Config::kPcsiDiag || c == Config::kPcsiEvp;
}

bool is_evp(Config c) {
  return c == Config::kCgEvp || c == Config::kPcsiEvp;
}

double compute_ops_per_point(Config c) {
  const double solver_ops = is_pcsi(c) ? 12.0 : 15.0;
  const double precond_ops = is_evp(c) ? 14.0 : 1.0;
  return solver_ops + precond_ops;
}

namespace {
/// Latency of one boundary update: 4 neighbor messages. A single rank
/// sends nothing — its exchanges are local copies — so it pays none.
double exchange_latency(const MachineProfile& m, int p) {
  return p > 1 ? 4.0 * m.alpha_p2p : 0.0;
}
}  // namespace

double reductions_per_iteration(Config c, int check_frequency) {
  MINIPOP_REQUIRE(check_frequency >= 1,
                  "check_frequency=" << check_frequency);
  return is_pcsi(c) ? 1.0 / check_frequency : 1.0;
}

IterationCosts iteration_costs(const MachineProfile& m, Config c,
                               long points, int p, int check_frequency) {
  return iteration_costs(m, c, points, p, check_frequency, 1.0);
}

IterationCosts iteration_costs(const MachineProfile& m, Config c,
                               long points, int p, int check_frequency,
                               double ocean_fraction) {
  MINIPOP_REQUIRE(points > 0 && p > 0, "points=" << points << " p=" << p);
  MINIPOP_REQUIRE(ocean_fraction > 0.0 && ocean_fraction <= 1.0,
                  "ocean_fraction=" << ocean_fraction);
  IterationCosts out;
  const double pts_per_rank = static_cast<double>(points) / p;
  const double n_linear = std::sqrt(static_cast<double>(points));

  // Span execution touches only ocean cells; the dense model is the
  // ocean_fraction = 1 limit.
  out.computation =
      compute_ops_per_point(c) * pts_per_rank * ocean_fraction * m.theta;

  // Boundary update: 4 neighbor messages, 8 N / sqrt(p) points of halo
  // (width-2 halo), 8 bytes per point (paper §2.2). Rims move dense —
  // land bytes included — so this term does not scale with land.
  const double halo_bytes = 8.0 * n_linear / std::sqrt(p) * 8.0;
  out.halo = exchange_latency(m, p) + halo_bytes * m.beta;

  // Global reduction: local masking + binomial tree of log2(p) hops
  // (none on one rank). The masked partial sum reads ocean cells only
  // under spans.
  const double reductions = reductions_per_iteration(c, check_frequency);
  const double tree =
      p > 1 ? std::log2(static_cast<double>(p)) * m.alpha_reduce(p) : 0.0;
  out.reduction =
      reductions *
      (kMaskOpsPerPoint * pts_per_rank * ocean_fraction * m.theta + tree);
  return out;
}

IterationCosts comm_avoid_iteration_costs(const MachineProfile& m, Config c,
                                          long points, int p,
                                          int check_frequency, int k) {
  return comm_avoid_iteration_costs(m, c, points, p, check_frequency, k,
                                    1.0);
}

IterationCosts comm_avoid_iteration_costs(const MachineProfile& m, Config c,
                                          long points, int p,
                                          int check_frequency, int k,
                                          double ocean_fraction) {
  MINIPOP_REQUIRE(is_pcsi(c), "comm-avoiding model needs a pcsi config, got "
                                  << to_string(c));
  MINIPOP_REQUIRE(k >= 1, "depth k=" << k);
  if (k == 1)
    return iteration_costs(m, c, points, p, check_frequency, ocean_fraction);

  IterationCosts out =
      iteration_costs(m, c, points, p, check_frequency, ocean_fraction);
  const double s =
      std::sqrt(static_cast<double>(points) / p);  // subdomain edge

  // Redundant perimeter work: a k-group computes the residual, then
  // preconditions and updates, on extensions e = k - 1, ..., 0, one
  // sweep of each per extension. Ops per point: 10 residual + T_p
  // precond + 4 update (the remaining ~2 ops/pt of the paper's 12 are
  // the check masking, already in the reduction term and
  // interior-only).
  const double precond_ops = is_evp(c) ? 14.0 : 1.0;
  double redundant = 0.0;
  for (int e = 1; e < k; ++e)
    redundant += (10.0 + precond_ops + 4.0) * (4.0 * e * s + 4.0 * e * e);
  // Ghost-rim land is skipped exactly like interior land, so redundant
  // work is discounted by the same ocean fraction.
  out.computation += redundant / k * ocean_fraction * m.theta;

  // One grouped exchange per k iterations: message latency divides by
  // k; the payload carries width-k rims of the TWO fields the group
  // reads beyond the interior, {x, dx} (vs the baseline's one width-2
  // rim of x per iteration); r never travels.
  const double group_bytes = 2.0 * 4.0 * k * s * 8.0;
  out.halo = (exchange_latency(m, p) + group_bytes * m.beta) / k;
  return out;
}

int choose_halo_depth(const MachineProfile& m, Config c, long points, int p,
                      int check_frequency, int max_depth) {
  return choose_halo_depth(m, c, points, p, check_frequency, max_depth,
                           1.0);
}

int choose_halo_depth(const MachineProfile& m, Config c, long points, int p,
                      int check_frequency, int max_depth,
                      double ocean_fraction) {
  if (!is_pcsi(c)) return 1;
  MINIPOP_REQUIRE(max_depth >= 1, "max_depth=" << max_depth);
  int best_k = 1;
  double best = comm_avoid_iteration_costs(m, c, points, p, check_frequency,
                                           1, ocean_fraction)
                    .total();
  for (int k = 2; k <= max_depth; ++k) {
    const double t = comm_avoid_iteration_costs(m, c, points, p,
                                                check_frequency, k,
                                                ocean_fraction)
                         .total();
    if (t < best) {
      best = t;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace minipop::perf
