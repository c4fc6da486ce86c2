// Kernel benchmark harness: times the hot-path kernels behind the
// barotropic solvers (src/solver/kernels.*, at width 1 over the block's
// land-span plan) against the seed's unfused Field-indexing loops, the
// block-EVP preconditioner (one tile march and a full apply), plus
// end-to-end ChronGear and P-CSI solves, on a representative masked
// production block (the full 1-degree POP grid as one 320x384 tile).
// Prints a table and writes BENCH_kernels.json — run it from the repo
// root so the JSON lands there:
//
//   ./build/bench/bench_kernels [output.json]
//
// Wall times characterize THIS machine; the scaling figures use the
// machine profiles in src/perf instead.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/kernels.hpp"
#include "src/solver/lanczos.hpp"

using namespace minipop;
namespace mk = solver::kernels;

// The seed loops below are the measurement baseline: they must stay
// compiled the way the seed shipped them (default build = -O2). Pinning
// them keeps the fused-vs-unfused comparison meaningful in -O3 builds.
#if defined(__GNUC__) && !defined(__clang__)
#define BENCH_SEED_OPT __attribute__((optimize("O2")))
#else
#define BENCH_SEED_OPT
#endif

namespace {

/// Pre-kernel (seed) implementations: Field::operator() indexing, one
/// sweep per logical operation, residual as apply-then-subtract.
namespace reference {

BENCH_SEED_OPT void apply(const solver::DistOperator& op,
                          const comm::DistField& x, comm::DistField& y) {
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& b = x.info(lb);
    const auto& c0 = op.block_coeff(lb, grid::Dir::kCenter);
    const auto& ce = op.block_coeff(lb, grid::Dir::kEast);
    const auto& cw = op.block_coeff(lb, grid::Dir::kWest);
    const auto& cn = op.block_coeff(lb, grid::Dir::kNorth);
    const auto& cs = op.block_coeff(lb, grid::Dir::kSouth);
    const auto& cne = op.block_coeff(lb, grid::Dir::kNorthEast);
    const auto& cnw = op.block_coeff(lb, grid::Dir::kNorthWest);
    const auto& cse = op.block_coeff(lb, grid::Dir::kSouthEast);
    const auto& csw = op.block_coeff(lb, grid::Dir::kSouthWest);
    const util::Field& xd = x.data(lb);
    util::Field& yd = const_cast<comm::DistField&>(y).data(lb);
    const int h = x.halo();
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) {
        const int ii = i + h, jj = j + h;
        yd(ii, jj) = c0(i, j) * xd(ii, jj) + ce(i, j) * xd(ii + 1, jj) +
                     cw(i, j) * xd(ii - 1, jj) + cn(i, j) * xd(ii, jj + 1) +
                     cs(i, j) * xd(ii, jj - 1) +
                     cne(i, j) * xd(ii + 1, jj + 1) +
                     cnw(i, j) * xd(ii - 1, jj + 1) +
                     cse(i, j) * xd(ii + 1, jj - 1) +
                     csw(i, j) * xd(ii - 1, jj - 1);
      }
  }
}

/// Seed residual: the apply sweep above, then a second full pass for
/// r = b - A x. This is what the fused residual9 kernel replaces.
BENCH_SEED_OPT void apply_then_subtract(const solver::DistOperator& op,
                                        const comm::DistField& b,
                                        const comm::DistField& x,
                                        comm::DistField& r) {
  apply(op, x, r);
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        r.at(lb, i, j) = b.at(lb, i, j) - r.at(lb, i, j);
  }
}

BENCH_SEED_OPT double masked_dot(const solver::DistOperator& op,
                                 const comm::DistField& a,
                                 const comm::DistField& b) {
  double sum = 0.0;
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    const auto& mask = op.block_mask(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (mask(i, j)) sum += a.at(lb, i, j) * b.at(lb, i, j);
  }
  return sum;
}

BENCH_SEED_OPT void lincomb(double a, const comm::DistField& x, double b,
                            comm::DistField& y) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        y.at(lb, i, j) = a * x.at(lb, i, j) + b * y.at(lb, i, j);
  }
}

}  // namespace reference

/// Best-of-repeats timing: calibrates the batch size to ~20 ms, then
/// reports the fastest of several batches (per single call, seconds).
template <typename F>
double time_best(F&& fn, int repeats = 5) {
  using clock = std::chrono::steady_clock;
  auto seconds_for = [&](int reps) {
    const auto t0 = clock::now();
    for (int k = 0; k < reps; ++k) fn();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  int reps = 1;
  double t = seconds_for(reps);
  while (t < 0.02 && reps < (1 << 20)) {
    reps *= 2;
    t = seconds_for(reps);
  }
  double best = t / reps;
  for (int k = 1; k < repeats; ++k)
    best = std::min(best, seconds_for(reps) / reps);
  return best;
}

struct KernelResult {
  std::string name;
  double seconds = 0;      ///< per call
  double bytes_per_point;  ///< logical traffic: 8 B per array element
                           ///< read or written, +1 B per mask byte.
  double points = 0;
  double mpoints_per_s() const { return points / seconds / 1e6; }
  double gb_per_s() const {
    return points * bytes_per_point / seconds / 1e9;
  }
};

struct SolveResult {
  std::string name;
  int iterations = 0;
  double seconds = 0;
  double rel_residual = 0;
};

bool write_json(const std::string& path, int nx, int ny,
                double ocean_fraction, double sweep_speedup,
                double path_speedup,
                const std::vector<KernelResult>& kernels,
                const std::vector<SolveResult>& solves) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n"
     << "  \"bench\": \"kernels\",\n"
     << "  \"grid\": {\"nx\": " << nx << ", \"ny\": " << ny
     << ", \"ocean_fraction\": " << ocean_fraction << "},\n"
     << "  \"residual_sweep_fused_speedup_vs_seed\": " << sweep_speedup
     << ",\n"
     << "  \"residual_path_fused_speedup_vs_seed\": " << path_speedup
     << ",\n"
     << "  \"kernels\": [\n";
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const auto& r = kernels[k];
    os << "    {\"name\": \"" << r.name << "\", \"ns_per_point\": "
       << r.seconds / r.points * 1e9 << ", \"mpoints_per_s\": "
       << r.mpoints_per_s() << ", \"bytes_per_point\": "
       << r.bytes_per_point << ", \"effective_gb_per_s\": " << r.gb_per_s()
       << "}" << (k + 1 < kernels.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"solves\": [\n";
  for (std::size_t k = 0; k < solves.size(); ++k) {
    const auto& s = solves[k];
    os << "    {\"solver\": \"" << s.name << "\", \"iterations\": "
       << s.iterations << ", \"seconds\": " << s.seconds
       << ", \"relative_residual\": " << s.rel_residual << "}"
       << (k + 1 < solves.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.flush();
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::parse_bench_args(argc, argv, "BENCH_kernels.json", false)
          .json_path;
  bench::print_header("kernels",
                      "hot-path kernel rates and fused-vs-seed speedup");

  // The full 1-degree production grid as ONE masked block, so the sweeps
  // below run over a representative land/ocean pattern with no block
  // edges inside the hot loop.
  bench::LiveCase c = bench::make_live_case("1deg", 1.0, 384);
  comm::SerialComm comm;
  solver::DistOperator op(*c.stencil, *c.decomp, 0);
  const int nx = c.grid->nx(), ny = c.grid->ny();
  const double points =
      static_cast<double>(nx) * ny;  // single block covers the grid
  const double ocean_fraction = op.local_ocean_cells() / points;
  std::printf("grid %dx%d, one block, %.0f%% ocean\n\n", nx, ny,
              100.0 * ocean_fraction);

  comm::DistField x(*c.decomp, 0), y(*c.decomp, 0), b(*c.decomp, 0),
      r(*c.decomp, 0), z(*c.decomp, 0);
  x.load_global(c.rhs_global);
  b.load_global(c.rhs_global);
  z.load_global(c.rhs_global);
  c.halo->exchange(comm, x);  // halos valid; sweeps below skip comms

  const auto st = [&] {
    return mk::Stencil9{
        op.block_coeff(0, grid::Dir::kCenter).data(),
        op.block_coeff(0, grid::Dir::kEast).data(),
        op.block_coeff(0, grid::Dir::kWest).data(),
        op.block_coeff(0, grid::Dir::kNorth).data(),
        op.block_coeff(0, grid::Dir::kSouth).data(),
        op.block_coeff(0, grid::Dir::kNorthEast).data(),
        op.block_coeff(0, grid::Dir::kNorthWest).data(),
        op.block_coeff(0, grid::Dir::kSouthEast).data(),
        op.block_coeff(0, grid::Dir::kSouthWest).data(),
        op.block_coeff(0, grid::Dir::kCenter).nx()};
  }();
  const int* ro = op.span_plan()[0].row_offset();
  const mk::Span* sp = op.span_plan()[0].spans();
  const auto& info = x.info(0);
  const double a1 = 1.0001, b1 = 0.9999, c1 = 1e-6;
  volatile double sink = 0;  // keeps reduction results live

  std::vector<KernelResult> results;
  auto add = [&](const std::string& name, double bytes_per_point,
                 double seconds, double pts = 0.0) {
    results.push_back(
        {name, seconds, bytes_per_point, pts > 0.0 ? pts : points});
    const auto& kr = results.back();
    std::printf("%-28s %8.3f ns/pt %9.1f Mpt/s %7.2f GB/s\n", name.c_str(),
                seconds / kr.points * 1e9, kr.mpoints_per_s(),
                kr.gb_per_s());
  };

  // Stencil sweeps. Logical traffic: 9 coefficient arrays + the fields
  // read/written, 8 B each per point (halo re-reads and write-allocate
  // traffic not counted — "effective" bandwidth in the STREAM sense).
  add("apply9", 88, time_best([&] {
        mk::apply9(st, ro, sp, 1, info.ny, x.interior(0), x.stride(0),
                   y.interior(0), y.stride(0));
      }));
  add("apply_seed_reference", 88,
      time_best([&] { reference::apply(op, x, y); }));
  const double fused = time_best([&] {
    mk::residual9(st, ro, sp, 1, info.ny, b.interior(0), b.stride(0),
                  x.interior(0), x.stride(0), r.interior(0), r.stride(0));
  });
  add("residual9_fused", 96, fused);
  const double unfused =
      time_best([&] { reference::apply_then_subtract(op, b, x, r); });
  add("residual_seed_apply_sub", 112, unfused);

  // The convergence-check path: the solvers need r AND masked ||r||^2.
  // Seed: apply sweep + subtract sweep + masked-dot sweep (three passes).
  // Fused: residual_norm2_9, one pass. This is the per-check-iteration
  // "residual path" the fusion exists for.
  const double check_fused = time_best([&] {
    double n2 = 0.0;
    mk::residual_norm2_9(st, ro, sp, 1, info.ny, b.interior(0), b.stride(0),
                         x.interior(0), x.stride(0), r.interior(0),
                         r.stride(0), &n2);
    sink = n2;
  });
  add("residual_norm2_9_fused", 97, check_fused);
  const double check_unfused = time_best([&] {
    reference::apply_then_subtract(op, b, x, r);
    sink = reference::masked_dot(op, r, r);
  });
  add("residual_norm2_seed_3pass", 121, check_unfused);

  // Reductions (mask byte counted once per point).
  add("masked_dot", 17, time_best([&] {
        double d = 0.0;
        mk::dot(ro, sp, 1, info.ny, x.interior(0), x.stride(0),
                b.interior(0), b.stride(0), &d);
        sink = d;
      }));
  add("masked_dot_seed_reference", 17,
      time_best([&] { sink = reference::masked_dot(op, x, b); }));
  add("masked_dot3_fused", 25, time_best([&] {
        double out[3] = {0, 0, 0};
        mk::dot3(ro, sp, 1, info.ny, r.interior(0), r.stride(0),
                 b.interior(0), b.stride(0), z.interior(0), z.stride(0),
                 true, out);
        sink = out[0] + out[1] + out[2];
      }));

  // Vector updates.
  add("lincomb", 24, time_best([&] {
        mk::lincomb(ro, sp, 1, info.ny, &a1, x.interior(0), x.stride(0),
                    &b1, y.interior(0), y.stride(0), nullptr);
      }));
  add("lincomb_seed_reference", 24,
      time_best([&] { reference::lincomb(1.0001, x, 0.9999, y); }));
  add("axpy", 24, time_best([&] {
        mk::axpy(ro, sp, 1, info.ny, &c1, x.interior(0), x.stride(0),
                 y.interior(0), y.stride(0), nullptr);
      }));
  add("lincomb_axpy_fused", 40, time_best([&] {
        mk::lincomb_axpy(ro, sp, 1, info.ny, &a1, x.interior(0),
                         x.stride(0), &b1, y.interior(0), y.stride(0), &c1,
                         z.interior(0), z.stride(0), nullptr);
      }));

  // EVP marching sweep: the Eq. 4 recurrence on a deep-ocean 12x12 tile
  // (the production tile size) of the regularized operator. The march
  // is a serial dependent chain through the NE-pivot division, so it is
  // bound by latency, not bytes. Traffic convention: 9 coefficients +
  // y read + x write per marched point.
  {
    const util::Field reg_depth = evp::regularize_land_depth(c.depth, 0.02);
    const grid::NinePointStencil reg_stencil(*c.grid, reg_depth, op.phi());
    std::array<util::Field, grid::kNumDirs> coeff;
    for (int d = 0; d < grid::kNumDirs; ++d)
      coeff[d] = reg_stencil.coeff(static_cast<grid::Dir>(d));
    const int tn = 12;
    const evp::EvpTileSolver tile(coeff, 160, 190, tn, tn);
    util::Field ty(tn, tn), tx(tn, tn, 0.0);
    for (int j = 0; j < tn; ++j)
      for (int i = 0; i < tn; ++i) ty(i, j) = ((i * 5 + j * 3) % 7) - 3.0;
    add("evp_sweep", 88, time_best([&] { tile.march_sweep(ty, tx); }),
        static_cast<double>(tn - 1) * (tn - 1));
  }

  // Full block-EVP preconditioner application (gather + two marches +
  // LU guess correction + masked scatter per tile) with the default
  // options — 12x12 production tiles — through the width-1 apply_batch
  // the solvers call. Traffic convention: two marches of 11 elements
  // per point.
  {
    evp::BlockEvpPreconditioner evp(op, *c.grid, c.depth);
    comm::DistFieldBatch bb(*c.decomp, 0, 1), rb(*c.decomp, 0, 1);
    bb.load_member(0, b);
    add("evp_apply", 2 * 11 * 8,
        time_best([&] { evp.apply_batch(comm, bb, rb); }));
  }

  const double sweep_speedup = unfused / fused;
  const double path_speedup = check_unfused / check_fused;
  std::printf(
      "\nresidual sweep (r = b - Ax) fused vs seed apply-then-subtract: "
      "%.2fx\n"
      "residual path incl. norm^2 (convergence check) fused vs seed "
      "3-pass: %.2fx\n\n",
      sweep_speedup, path_speedup);

  // End-to-end solves on the same problem (diagonal preconditioner,
  // warm Lanczos bounds for P-CSI; solve time only, setup excluded).
  std::vector<SolveResult> solves;
  solver::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  solver::DiagonalPreconditioner m(op);
  {
    solver::BatchedChronGearSolver cg(opt);
    solver::SolveStats stats;
    comm::DistField xs(*c.decomp, 0);
    const double secs = time_best(
        [&] {
          xs.fill(0.0);
          stats = solver::solve_one(cg, comm, *c.halo, op, m, b, xs);
        },
        3);
    solves.push_back({"chrongear", stats.iterations, secs,
                      stats.relative_residual});
  }
  {
    solver::LanczosOptions lopt;
    const auto bounds =
        solver::estimate_eigenvalue_bounds(comm, *c.halo, op, m, lopt)
            .bounds;
    solver::BatchedPcsiSolver pcsi(bounds, opt);
    solver::SolveStats stats;
    comm::DistField xs(*c.decomp, 0);
    const double secs = time_best(
        [&] {
          xs.fill(0.0);
          stats = solver::solve_one(pcsi, comm, *c.halo, op, m, b, xs);
        },
        3);
    solves.push_back({"pcsi", stats.iterations, secs,
                      stats.relative_residual});
  }
  for (const auto& s : solves)
    std::printf("%-10s %5d iters  %8.2f ms/solve  rel=%.3e\n",
                s.name.c_str(), s.iterations, s.seconds * 1e3,
                s.rel_residual);

  if (!write_json(json_path, nx, ny, ocean_fraction, sweep_speedup,
                  path_speedup, results, solves)) {
    std::fprintf(stderr, "\nerror: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
