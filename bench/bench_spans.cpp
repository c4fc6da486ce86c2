// Land-span execution harness (DESIGN.md §14): span kernel rates against
// the masked reference family (kernels_masked.hpp) and end-to-end P-CSI
// solves on a low-land and a high-land synthetic bathymetry, with the
// bitwise-identity contract re-checked on every run, each solve's
// iterations and final residual bits checked against the masked-kernel
// solve it replaced, and the active/swept cost counters audited against
// the decomposition's ocean fraction. Writes BENCH_spans.json:
//
//   ./build/bench/bench_spans [--smoke] [output.json]
//
// --smoke runs the CI gate: identity + solve + counter checks plus the
// masked-norm residual sweep (residual_norm2_9, the convergence-check
// path) on the >= 40%-land case, asserting the span kernel is at least
// 1.25x the masked reference. The gated pair is timed interleaved
// (time_best_interleaved) so host noise cannot land on one side only.
// Wall times characterize the machine the bench runs on.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "src/model/ocean_model.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/kernels.hpp"
#include "src/solver/kernels_masked.hpp"
#include "src/solver/lanczos.hpp"
#include "src/solver/preconditioner.hpp"
#include "src/solver/span_plan.hpp"
#include "src/util/rng.hpp"

using namespace minipop;
namespace mk = solver::kernels;

namespace {

/// Seconds for `reps` back-to-back calls of fn.
template <typename F>
double seconds_for(F& fn, int reps) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (int k = 0; k < reps; ++k) fn();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Smallest power-of-two batch size whose run of fn takes >= ~20 ms;
/// *seconds receives that run's time.
template <typename F>
int calibrate_reps(F& fn, double* seconds) {
  int reps = 1;
  *seconds = seconds_for(fn, reps);
  while (*seconds < 0.02 && reps < (1 << 20)) {
    reps *= 2;
    *seconds = seconds_for(fn, reps);
  }
  return reps;
}

/// Best-of-repeats timing: calibrates the batch size to ~20 ms, then
/// reports the fastest of several batches (per single call, seconds).
template <typename F>
double time_best(F&& fn, int repeats = 5) {
  double t = 0.0;
  const int reps = calibrate_reps(fn, &t);
  double best = t / reps;
  for (int k = 1; k < repeats; ++k)
    best = std::min(best, seconds_for(fn, reps) / reps);
  return best;
}

/// time_best for a masked/span pair whose ratio is gated: one batch
/// size, calibrated on the masked call, and the two sides' batches
/// alternate inside one best-of loop, so a burst of host noise lands on
/// both sides of the ratio rather than on one. Returns the best
/// {masked, span} seconds per call.
template <typename M, typename S>
std::pair<double, double> time_best_interleaved(M&& masked, S&& span,
                                                int repeats = 5) {
  double t = 0.0;
  const int reps = calibrate_reps(masked, &t);
  double best_m = t / reps;
  double best_s = seconds_for(span, reps) / reps;
  for (int k = 1; k < repeats; ++k) {
    best_m = std::min(best_m, seconds_for(masked, reps) / reps);
    best_s = std::min(best_s, seconds_for(span, reps) / reps);
  }
  return {best_m, best_s};
}

/// One synthetic case: scaled 1-degree grid with a target land
/// fraction, the whole grid as ONE block (kernel timing without block
/// edges in the hot loop) plus a production-like 32-cell block
/// decomposition for the end-to-end solves.
struct Case {
  std::string name;
  std::unique_ptr<grid::CurvilinearGrid> grid;
  util::Field depth;
  std::unique_ptr<grid::NinePointStencil> stencil;
  std::unique_ptr<grid::Decomposition> one_block;
  std::unique_ptr<grid::Decomposition> blocks;
  util::Field rhs_global;
  double scale = 1.0;  ///< grid scale relative to the 1-degree grid
  double land = 0.0;   ///< measured mask land fraction
};

Case make_case(const std::string& name, double land_target, double scale,
               std::uint64_t seed) {
  Case c;
  c.name = name;
  c.scale = scale;
  c.grid = std::make_unique<grid::CurvilinearGrid>(
      grid::pop_1deg_spec(scale));
  grid::BathymetryOptions bopt;
  bopt.seed = seed;
  bopt.land_fraction = land_target;
  c.depth = grid::synthetic_earth_bathymetry(*c.grid, bopt);
  const double dt = model::recommended_barotropic_dt(*c.grid);
  const double theta = 0.6;
  const double phi = 1.0 / (9.806 * theta * theta * dt * dt);
  c.stencil = std::make_unique<grid::NinePointStencil>(*c.grid, c.depth,
                                                       phi);
  const auto& mask = c.stencil->mask();
  c.land = grid::land_fraction(mask);
  const int nx = c.grid->nx(), ny = c.grid->ny();
  c.one_block = std::make_unique<grid::Decomposition>(
      nx, ny, c.grid->periodic_x(), mask, nx, ny, 1);
  c.blocks = std::make_unique<grid::Decomposition>(
      nx, ny, c.grid->periodic_x(), mask, 32, 32, 1);
  c.rhs_global = util::Field(nx, ny, 0.0);
  util::Xoshiro256 rng(seed ^ 0x5bd1e995);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (mask(i, j))
        c.rhs_global(i, j) =
            phi * c.grid->area_t()(i, j) * 0.1 * rng.uniform(-1, 1);
  return c;
}

struct KernelPair {
  std::string name;
  double masked_s = 0;  ///< seconds per masked-reference call
  double span_s = 0;    ///< seconds per span call
  double bytes_per_point = 0;
  double points = 0;
  double speedup() const { return masked_s / span_s; }
  double masked_gbs() const {
    return points * bytes_per_point / masked_s / 1e9;
  }
  /// GB/s-EQUIVALENT: same full-sweep traffic convention as the masked
  /// row, so the span/masked ratio IS the land-skip speedup.
  double span_gbs() const {
    return points * bytes_per_point / span_s / 1e9;
  }
};

struct SolveResult {
  std::string case_name;
  int iterations = 0;
  double seconds = 0;
};

/// Iterations and final relative residual bits of each case's P-CSI
/// solve with the masked kernels, recorded at the smoke (0.5) and full
/// (1.0) grid scales before span execution became the only path. The
/// span solve must reproduce them exactly.
struct SolvePin {
  const char* case_name;
  double scale;
  int iterations;
  std::uint64_t rel_bits;
};
constexpr SolvePin kSolvePins[] = {
    {"low_land", 0.5, 420, 0x3dd5156bae89e373ull},
    {"high_land", 0.5, 200, 0x3dcb39f4ae46b268ull},
    {"low_land", 1.0, 580, 0x3ddb6bb35a3782d7ull},
    {"high_land", 1.0, 250, 0x3dd3bba9385da5b6ull},
};

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "IDENTITY FAILURE: %s\n", what);
    ++failures;
  }
}

void expect_ocean_equal(const grid::Decomposition& d,
                        const util::MaskArray& mask,
                        const comm::DistField& a, const comm::DistField& b,
                        const char* what) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (mask(info.i0 + i, info.j0 + j) &&
            a.at(lb, i, j) != b.at(lb, i, j)) {
          check(false, what);
          return;
        }
  }
  (void)d;
}

/// Per-kernel masked-vs-span rates on the case's whole-grid block, with
/// every pair's outputs cross-checked bitwise before timing.
std::vector<KernelPair> kernel_pairs(Case& c, bool smoke_only) {
  comm::SerialComm comm;
  comm::HaloExchanger halo(*c.one_block);
  solver::DistOperator op(*c.stencil, *c.one_block, 0);
  const auto& mask = op.block_mask(0);
  const solver::BlockSpans& bs = op.span_plan()[0];
  const int* ro = bs.row_offset();
  const mk::Span* sp = bs.spans();

  comm::DistField x(*c.one_block, 0), y(*c.one_block, 0),
      b(*c.one_block, 0), r_m(*c.one_block, 0), r_s(*c.one_block, 0),
      z(*c.one_block, 0);
  x.load_global(c.rhs_global);
  b.load_global(c.rhs_global);
  z.load_global(c.rhs_global);
  halo.exchange(comm, x);
  const auto& info = x.info(0);
  const double points = static_cast<double>(info.nx) * info.ny;
  const mk::Stencil9 st{op.block_coeff(0, grid::Dir::kCenter).data(),
                        op.block_coeff(0, grid::Dir::kEast).data(),
                        op.block_coeff(0, grid::Dir::kWest).data(),
                        op.block_coeff(0, grid::Dir::kNorth).data(),
                        op.block_coeff(0, grid::Dir::kSouth).data(),
                        op.block_coeff(0, grid::Dir::kNorthEast).data(),
                        op.block_coeff(0, grid::Dir::kNorthWest).data(),
                        op.block_coeff(0, grid::Dir::kSouthEast).data(),
                        op.block_coeff(0, grid::Dir::kSouthWest).data(),
                        op.block_coeff(0, grid::Dir::kCenter).nx()};
  const double a1 = 1.0001, b1 = 0.9999, c1 = 1e-6, s1 = 1.0000001;
  volatile double sink = 0;

  std::vector<KernelPair> out;
  auto add = [&](const std::string& name, double bytes, double masked_s,
                 double span_s) {
    out.push_back({name, masked_s, span_s, bytes, points});
    std::printf("  %-22s masked %8.3f ns/pt  span %8.3f ns/pt  %5.2fx\n",
                name.c_str(), masked_s / points * 1e9,
                span_s / points * 1e9, out.back().speedup());
  };
  // Width-1 calls of the two families.
  const auto masked_norm = [&] {
    double n = 0.0;
    mk::masked::residual_norm2_9(st, mask.data(), mask.nx(), 1, info.nx,
                                 info.ny, b.interior(0), b.stride(0),
                                 x.interior(0), x.stride(0),
                                 r_m.interior(0), r_m.stride(0), &n);
    return n;
  };
  const auto span_norm = [&] {
    double n = 0.0;
    mk::residual_norm2_9(st, ro, sp, 1, info.ny, b.interior(0), b.stride(0),
                         x.interior(0), x.stride(0), r_s.interior(0),
                         r_s.stride(0), &n);
    return n;
  };
  const auto masked_dot = [&] {
    double d = 0.0;
    mk::masked::dot(mask.data(), mask.nx(), 1, info.nx, info.ny,
                    x.interior(0), x.stride(0), b.interior(0), b.stride(0),
                    &d);
    return d;
  };
  const auto span_dot = [&] {
    double d = 0.0;
    mk::dot(ro, sp, 1, info.ny, x.interior(0), x.stride(0), b.interior(0),
            b.stride(0), &d);
    return d;
  };
  const auto masked_dot3 = [&](double* o) {
    mk::masked::dot3(mask.data(), mask.nx(), 1, info.nx, info.ny,
                     r_m.interior(0), r_m.stride(0), b.interior(0),
                     b.stride(0), z.interior(0), z.stride(0), true, o);
  };
  const auto span_dot3 = [&](double* o) {
    mk::dot3(ro, sp, 1, info.ny, r_m.interior(0), r_m.stride(0),
             b.interior(0), b.stride(0), z.interior(0), z.stride(0), true,
             o);
  };

  // The convergence-check sweep (fused residual + masked norm²): the
  // smoke gate's metric, timed interleaved. Identity first, then rates.
  check(masked_norm() == span_norm(), "residual_norm2_9 reduced norm");
  expect_ocean_equal(*c.one_block, c.stencil->mask(), r_m, r_s,
                     "residual_norm2_9 residual plane");
  const auto [norm_masked_s, norm_span_s] =
      time_best_interleaved([&] { sink = masked_norm(); },
                            [&] { sink = span_norm(); });
  add("residual_norm2_9", 97, norm_masked_s, norm_span_s);
  if (smoke_only) return out;

  // Residual sweep without the norm.
  const auto masked_residual = [&] {
    mk::masked::residual9(st, 1, info.nx, info.ny, b.interior(0),
                          b.stride(0), x.interior(0), x.stride(0),
                          r_m.interior(0), r_m.stride(0));
  };
  const auto span_residual = [&] {
    mk::residual9(st, ro, sp, 1, info.ny, b.interior(0), b.stride(0),
                  x.interior(0), x.stride(0), r_s.interior(0),
                  r_s.stride(0));
  };
  masked_residual();
  span_residual();
  expect_ocean_equal(*c.one_block, c.stencil->mask(), r_m, r_s,
                     "residual9 plane");
  add("residual9", 96, time_best(masked_residual), time_best(span_residual));

  // Reductions.
  check(masked_dot() == span_dot(), "masked_dot");
  add("masked_dot", 17, time_best([&] { sink = masked_dot(); }),
      time_best([&] { sink = span_dot(); }));
  {
    double dm[3] = {0, 0, 0}, ds[3] = {0, 0, 0};
    masked_dot3(dm);
    span_dot3(ds);
    check(dm[0] == ds[0] && dm[1] == ds[1] && dm[2] == ds[2],
          "masked_dot3");
  }
  add("masked_dot3", 25,
      time_best([&] {
        double o[3] = {0, 0, 0};
        masked_dot3(o);
        sink = o[0] + o[1] + o[2];
      }),
      time_best([&] {
        double o[3] = {0, 0, 0};
        span_dot3(o);
        sink = o[0] + o[1] + o[2];
      }));

  // Vector updates (the masked reference sweeps every cell; span skips
  // land).
  add("lincomb", 24,
      time_best([&] {
        mk::masked::lincomb(1, info.nx, info.ny, &a1, x.interior(0),
                            x.stride(0), &b1, y.interior(0), y.stride(0),
                            nullptr);
      }),
      time_best([&] {
        mk::lincomb(ro, sp, 1, info.ny, &a1, x.interior(0), x.stride(0),
                    &b1, y.interior(0), y.stride(0), nullptr);
      }));
  add("lincomb_axpy", 40,
      time_best([&] {
        mk::masked::lincomb_axpy(1, info.nx, info.ny, &a1, x.interior(0),
                                 x.stride(0), &b1, y.interior(0),
                                 y.stride(0), &c1, z.interior(0),
                                 z.stride(0), nullptr);
      }),
      time_best([&] {
        mk::lincomb_axpy(ro, sp, 1, info.ny, &a1, x.interior(0),
                         x.stride(0), &b1, y.interior(0), y.stride(0), &c1,
                         z.interior(0), z.stride(0), nullptr);
      }));
  add("scale", 16,
      time_best([&] {
        mk::masked::scale(1, info.nx, info.ny, &s1, y.interior(0),
                          y.stride(0), nullptr);
      }),
      time_best([&] {
        mk::scale(ro, sp, 1, info.ny, &s1, y.interior(0), y.stride(0),
                  nullptr);
      }));
  return out;
}

/// End-to-end P-CSI on the 32-cell block decomposition: iterations and
/// the final residual bits against the masked-kernel pin, and the
/// active/swept counter audit.
SolveResult solve(Case& c, bool audit_only) {
  comm::SerialComm comm;
  comm::HaloExchanger halo(*c.blocks);
  solver::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.max_iterations = 5000;

  solver::DistOperator a(*c.stencil, *c.blocks, 0);
  solver::DiagonalPreconditioner m(a);
  solver::LanczosOptions lopt;
  const solver::EigenBounds bounds =
      solver::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
  solver::BatchedPcsiSolver s(bounds, opt);
  comm::DistField x(*c.blocks, 0), b(*c.blocks, 0);
  b.load_global(c.rhs_global);

  const auto snap = comm.costs().counters();
  const solver::SolveStats stats =
      solver::solve_one(s, comm, halo, a, m, b, x);
  const auto d = comm.costs().since(snap);
  // Counter audit: every sweep records the block's ocean census against
  // the swept region, so the ratio must reproduce the decomposition's
  // ocean fraction.
  check(d.active_points > 0 && d.swept_points >= d.active_points,
        "active/swept counters recorded");
  const double ratio = static_cast<double>(d.active_points) /
                       static_cast<double>(d.swept_points);
  check(std::abs(ratio - c.blocks->ocean_fraction()) < 1e-9,
        "active/swept ratio == decomposition ocean fraction");

  check(stats.converged, "solve converged");
  const SolvePin* pin = nullptr;
  for (const SolvePin& p : kSolvePins)
    if (c.name == p.case_name && c.scale == p.scale) pin = &p;
  check(pin != nullptr, "masked-kernel solve pin exists for this case");
  if (pin) {
    std::uint64_t rel_bits;
    std::memcpy(&rel_bits, &stats.relative_residual, sizeof(rel_bits));
    check(stats.iterations == pin->iterations,
          "iterations == masked-kernel solve");
    check(rel_bits == pin->rel_bits,
          "final residual bits == masked-kernel solve");
  }

  SolveResult out;
  out.case_name = c.name;
  out.iterations = stats.iterations;
  if (audit_only) return out;

  out.seconds = time_best(
      [&] {
        x.fill(0.0);
        solver::solve_one(s, comm, halo, a, m, b, x);
      },
      3);
  std::printf("  pcsi %-10s %4d iters  %7.2f ms/solve\n", c.name.c_str(),
              out.iterations, out.seconds * 1e3);
  return out;
}

bool write_json(const std::string& path, const std::vector<Case>& cases,
                const std::vector<std::vector<KernelPair>>& kernels,
                const std::vector<SolveResult>& solves, bool smoke,
                double smoke_speedup) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n  \"bench\": \"spans\",\n  \"smoke\": "
     << (smoke ? "true" : "false")
     << ",\n  \"identity_checked\": true,\n  \"smoke_speedup\": "
     << smoke_speedup << ",\n  \"cases\": [\n";
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    os << "    {\"name\": \"" << c.name << "\", \"nx\": " << c.grid->nx()
       << ", \"ny\": " << c.grid->ny()
       << ", \"land_fraction\": " << c.land
       << ", \"block_ocean_fraction\": " << c.blocks->ocean_fraction()
       << ",\n     \"kernels\": [\n";
    for (std::size_t k = 0; k < kernels[ci].size(); ++k) {
      const KernelPair& p = kernels[ci][k];
      os << "       {\"name\": \"" << p.name
         << "\", \"masked_gb_per_s\": " << p.masked_gbs()
         << ", \"span_gb_per_s\": " << p.span_gbs()
         << ", \"speedup\": " << p.speedup() << "}"
         << (k + 1 < kernels[ci].size() ? "," : "") << "\n";
    }
    os << "     ]}" << (ci + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"solves\": [\n";
  for (std::size_t k = 0; k < solves.size(); ++k) {
    const SolveResult& s = solves[k];
    os << "    {\"case\": \"" << s.case_name
       << "\", \"iterations\": " << s.iterations
       << ", \"seconds\": " << s.seconds << "}"
       << (k + 1 < solves.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.flush();
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] =
      bench::parse_bench_args(argc, argv, "BENCH_spans.json", true);
  bench::print_header(
      "spans", "span kernels vs the masked reference, low vs high land");

  std::vector<Case> cases;
  cases.push_back(make_case("low_land", 0.25, smoke ? 0.5 : 1.0, 2015));
  cases.push_back(make_case("high_land", 0.45, smoke ? 0.5 : 1.0, 2016));
  // The smoke gate's contract is a >= 40%-land sweep; the synthetic
  // generator tracks its target closely, but verify rather than assume.
  check(cases[1].land >= 0.40, "high_land case has >= 40% land");

  std::vector<std::vector<KernelPair>> kernels;
  std::vector<SolveResult> solves;
  double smoke_speedup = 0.0;
  for (Case& c : cases) {
    std::printf("\n%s: %dx%d, %.0f%% land, block ocean fraction %.3f\n",
                c.name.c_str(), c.grid->nx(), c.grid->ny(), 100.0 * c.land,
                c.blocks->ocean_fraction());
    kernels.push_back(kernel_pairs(c, smoke && c.name != "high_land"));
    if (c.name == "high_land")
      for (const KernelPair& p : kernels.back())
        if (p.name == "residual_norm2_9") smoke_speedup = p.speedup();
    solves.push_back(solve(c, smoke));
  }

  std::printf(
      "\nmasked-norm residual sweep at %.0f%% land: span %.2fx masked\n",
      100.0 * cases[1].land, smoke_speedup);
  if (smoke && smoke_speedup < 1.25) {
    std::fprintf(stderr,
                 "SMOKE FAILURE: residual_norm2_9 span speedup %.2fx < "
                 "1.25x at %.0f%% land\n",
                 smoke_speedup, 100.0 * cases[1].land);
    ++failures;
  }

  if (!write_json(json_path, cases, kernels, solves, smoke,
                  smoke_speedup)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  if (failures) {
    std::fprintf(stderr, "%d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all identity and counter checks passed\n");
  return 0;
}
