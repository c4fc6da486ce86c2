// Mixed-precision benchmark harness: quantifies what the fp32 storage
// path buys and proves it costs no accuracy. Four experiments, one JSON:
//
//   1. Per-kernel fp32-vs-fp64 rates for the solver hot loops (9-point
//      matvec, fused residual, at width 1 over the block's land-span
//      plan) and the EVP marching sweep, reported as
//      GB/s-EQUIVALENT: both precisions are charged the fp64 byte
//      convention, so the fp32/fp64 ratio IS the per-sweep speedup the
//      halved storage buys (2.0x = perfectly bandwidth-bound).
//   2. Halo bytes on the wire per exchange, fp64 vs fp32 fields, on a
//      4-rank decomposition (the static per-exchange payload of the
//      split-phase engine; fp32 halos are exactly half).
//   3. End-to-end barotropic solves (P-CSI + block-EVP) per precision
//      mode: fp64 and mixed at the production 1e-10 tolerance, fp32 and
//      fp64 at the loose 1e-5 tolerance where a pure-float solve is
//      viable.
//   4. A Figure-12-style tolerance-vs-RMSE sweep on two model grids:
//      monthly temperature RMSE against a strict fp64 reference, for
//      fp64 and mixed at each tolerance. Mixed "matches fp64" when its
//      RMSE stays below the tolerance-equivalent error — the RMSE an
//      honestly-converged fp64 solve shows at the loosest tested
//      tolerance on that grid.
//
// Run from the repo root so BENCH_precision.json lands there:
//
//   ./build/bench/bench_precision [output.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/model/ocean_model.hpp"
#include "src/solver/dist_operator.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/kernels.hpp"
#include "src/stats/ensemble.hpp"
#include "src/stats/statistics.hpp"

using namespace minipop;
namespace mk = solver::kernels;

namespace {

/// Best-of-repeats timing (same scheme as bench_kernels): calibrate the
/// batch to ~20 ms, report the fastest batch mean per call, in seconds.
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

struct KernelRow {
  std::string name;
  std::string precision;   ///< "fp64" | "fp32"
  double seconds = 0;      ///< per call
  double bytes_per_point;  ///< fp64-byte convention for BOTH precisions
  double points = 0;
  double gb_equiv_per_s() const {
    return points * bytes_per_point / seconds / 1e9;
  }
};

struct SolveRow {
  std::string mode;  ///< "fp64" | "fp32" | "mixed"
  double tolerance = 0;
  int iterations = 0;
  int refine_sweeps = 0;
  double seconds = 0;
  double rel_residual = 0;
  bool converged = false;
};

struct RmseRow {
  std::string grid;
  int nx = 0, ny = 0;
  double tolerance = 0;
  double rmse_fp64 = 0;   ///< fp64 @ tolerance vs strict fp64 reference
  double rmse_mixed = 0;  ///< mixed @ tolerance vs the same reference
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::parse_bench_args(argc, argv, "BENCH_precision.json", false)
          .json_path;
  bench::print_header("precision",
                      "fp32 storage path: kernel/EVP/halo gains and "
                      "mixed-vs-fp64 accuracy");

  // ------------------------------------------------------------------
  // 1. Kernel rates: the full 1-degree grid as one masked block.
  // ------------------------------------------------------------------
  bench::LiveCase c = bench::make_live_case("1deg", 1.0, 384);
  comm::SerialComm comm;
  solver::DistOperator op(*c.stencil, *c.decomp, 0);
  const int nx = c.grid->nx(), ny = c.grid->ny();
  const double points = static_cast<double>(nx) * ny;
  std::printf("grid %dx%d, one block, %.0f%% ocean\n\n", nx, ny,
              100.0 * op.local_ocean_cells() / points);

  comm::DistField x(*c.decomp, 0), y(*c.decomp, 0), b(*c.decomp, 0),
      r(*c.decomp, 0);
  x.load_global(c.rhs_global);
  b.load_global(c.rhs_global);
  c.halo->exchange(comm, x);
  comm::DistField32 x32(*c.decomp, 0), y32(*c.decomp, 0),
      b32(*c.decomp, 0), r32(*c.decomp, 0);
  const auto demote = [](const comm::DistField& f, comm::DistField32& f32) {
    for (int lb = 0; lb < f.num_local_blocks(); ++lb)
      mk::convert(f.info(lb).nx, f.info(lb).ny, f.interior(lb), f.stride(lb),
                  f32.interior(lb), f32.stride(lb));
  };
  demote(x, x32);
  demote(b, b32);
  c.halo->exchange(comm, x32);

  auto stencil_of = [&](auto tag) {
    using T = decltype(tag);
    auto coeff = [&](grid::Dir d) -> const T* {
      if constexpr (std::is_same_v<T, float>)
        return op.block_coeff32(0, d).data();
      else
        return op.block_coeff(0, d).data();
    };
    return mk::Stencil9T<T>{coeff(grid::Dir::kCenter),
                            coeff(grid::Dir::kEast),
                            coeff(grid::Dir::kWest),
                            coeff(grid::Dir::kNorth),
                            coeff(grid::Dir::kSouth),
                            coeff(grid::Dir::kNorthEast),
                            coeff(grid::Dir::kNorthWest),
                            coeff(grid::Dir::kSouthEast),
                            coeff(grid::Dir::kSouthWest),
                            op.block_coeff(0, grid::Dir::kCenter).nx()};
  };
  const auto st64 = stencil_of(double{});
  const auto st32 = stencil_of(float{});
  const auto& info = x.info(0);
  const int* ro = op.span_plan()[0].row_offset();
  const mk::Span* sp = op.span_plan()[0].spans();

  std::vector<KernelRow> kernels;
  auto add = [&](const std::string& name, const std::string& prec,
                 double bytes_per_point, double pts, double seconds) {
    kernels.push_back({name, prec, seconds, bytes_per_point, pts});
    std::printf("%-18s %-5s %8.3f ns/pt %8.2f GB/s-equiv\n", name.c_str(),
                prec.c_str(), seconds / pts * 1e9,
                kernels.back().gb_equiv_per_s());
  };

  add("apply9", "fp64", 88, points, time_best([&] {
        mk::apply9(st64, ro, sp, 1, info.ny, x.interior(0), x.stride(0),
                   y.interior(0), y.stride(0));
      }));
  add("apply9", "fp32", 88, points, time_best([&] {
        mk::apply9(st32, ro, sp, 1, info.ny, x32.interior(0),
                   x32.stride(0), y32.interior(0), y32.stride(0));
      }));
  add("residual9", "fp64", 96, points, time_best([&] {
        mk::residual9(st64, ro, sp, 1, info.ny, b.interior(0), b.stride(0),
                      x.interior(0), x.stride(0), r.interior(0),
                      r.stride(0));
      }));
  add("residual9", "fp32", 96, points, time_best([&] {
        mk::residual9(st32, ro, sp, 1, info.ny, b32.interior(0),
                      b32.stride(0), x32.interior(0), x32.stride(0),
                      r32.interior(0), r32.stride(0));
      }));

  // EVP marching sweep: the Eq. 4 recurrence on a deep-ocean 12x12 tile
  // (the production fp64 tile size) of the regularized operator. The
  // march is a serial dependent chain; the fp64 critical path carries
  // the NE-pivot division, which the fp32 march replaces with a
  // precomputed-reciprocal multiply — this kernel is where the fp32 EVP
  // speedup lives. fp32 validation is disabled here on purpose: a 12x12
  // fp32 march is timing-representative but not accuracy-representative
  // (production fp32 tiles are 6x6), and this row times arithmetic only.
  // Traffic convention: 9 coefficients + y read + x write per point.
  {
    const util::Field reg_depth = evp::regularize_land_depth(c.depth, 0.02);
    const grid::NinePointStencil reg_stencil(*c.grid, reg_depth, op.phi());
    std::array<util::Field, grid::kNumDirs> coeff;
    for (int d = 0; d < grid::kNumDirs; ++d)
      coeff[d] = reg_stencil.coeff(static_cast<grid::Dir>(d));
    const int tn = 12;
    evp::EvpTileSolver tile(coeff, 160, 190, tn, tn);
    tile.enable_fp32(/*validate_accuracy=*/0.0);
    util::Field ty(tn, tn), tx(tn, tn, 0.0);
    for (int j = 0; j < tn; ++j)
      for (int i = 0; i < tn; ++i) ty(i, j) = ((i * 5 + j * 3) % 7) - 3.0;
    util::Array2D<float> ty32(tn, tn), tx32(tn, tn, 0.0f);
    for (int j = 0; j < tn; ++j)
      for (int i = 0; i < tn; ++i)
        ty32(i, j) = static_cast<float>(ty(i, j));
    const double tile_points = static_cast<double>(tn - 1) * (tn - 1);
    add("evp_sweep", "fp64", 88, tile_points,
        time_best([&] { tile.march_sweep(ty, tx); }));
    add("evp_sweep", "fp32", 88, tile_points,
        time_best([&] { tile.march_sweep32(ty32, tx32); }));
  }

  // Full block-EVP preconditioner application (gather + marches + LU
  // guess correction + masked scatter) at equal 6x6 tiles for both
  // precisions. The O(k) correction and tile bookkeeping are shared
  // double-precision work, so the end-to-end ratio is necessarily
  // smaller than the marching-sweep ratio above. Traffic convention:
  // two marches of 11 elements/point.
  {
    evp::BlockEvpOptions eopt;
    eopt.max_tile = 6;
    eopt.max_tile32 = 6;
    evp::BlockEvpPreconditioner evp(op, *c.grid, c.depth, eopt);
    // Width-1 batches: the precision-generic entry point of the solvers.
    comm::DistFieldBatch bb(*c.decomp, 0, 1), rb(*c.decomp, 0, 1);
    comm::DistFieldBatch32 bb32(*c.decomp, 0, 1), rb32(*c.decomp, 0, 1);
    bb.load_member(0, b);
    solver::demote(bb, bb32);
    evp.apply_batch(comm, bb32, rb32);  // builds the fp32 tiles untimed
    const double evp_bytes = 2 * 11 * 8;
    add("evp_apply", "fp64", evp_bytes, points,
        time_best([&] { evp.apply_batch(comm, bb, rb); }));
    add("evp_apply", "fp32", evp_bytes, points,
        time_best([&] { evp.apply_batch(comm, bb32, rb32); }));
  }

  auto speedup = [&](const std::string& name) {
    double s64 = 0, s32 = 0;
    for (const auto& k : kernels) {
      if (k.name != name) continue;
      (k.precision == "fp64" ? s64 : s32) = k.seconds;
    }
    return s64 / s32;
  };
  const double sp_apply = speedup("apply9");
  const double sp_residual = speedup("residual9");
  const double sp_evp = speedup("evp_sweep");
  const double sp_evp_apply = speedup("evp_apply");
  std::printf(
      "\nfp32 speedup (GB/s-equivalent ratio): apply9 %.2fx, "
      "residual9 %.2fx, evp_sweep %.2fx, evp_apply %.2fx\n",
      sp_apply, sp_residual, sp_evp, sp_evp_apply);

  // ------------------------------------------------------------------
  // 2. Halo payload on the wire: 4-rank decomposition of the same grid,
  //    rank 0's per-exchange remote send bytes.
  // ------------------------------------------------------------------
  std::uint64_t halo_bytes64 = 0, halo_bytes32 = 0;
  {
    auto mask = c.stencil->mask();
    grid::Decomposition d4(nx, ny, c.grid->periodic_x(), mask, 48, 48, 4);
    comm::HaloExchanger halo4(d4);
    comm::DistField f64(d4, 0);
    comm::DistField32 f32(d4, 0);
    halo_bytes64 = halo4.bytes_sent_per_exchange(f64);
    halo_bytes32 = halo4.bytes_sent_per_exchange(f32);
    std::printf(
        "\nhalo payload per exchange (rank 0 of 4, 48x48 blocks): "
        "fp64 %llu B, fp32 %llu B (%.2fx smaller)\n",
        static_cast<unsigned long long>(halo_bytes64),
        static_cast<unsigned long long>(halo_bytes32),
        static_cast<double>(halo_bytes64) / halo_bytes32);
  }

  // ------------------------------------------------------------------
  // 3. End-to-end solves per precision mode (P-CSI + block-EVP).
  // ------------------------------------------------------------------
  std::vector<SolveRow> solves;
  auto run_mode = [&](const std::string& mode, solver::Precision prec,
                      double tol) {
    solver::SolverConfig cfg;
    cfg.solver = solver::SolverKind::kPcsi;
    cfg.preconditioner = solver::PreconditionerKind::kBlockEvp;
    cfg.options.rel_tolerance = tol;
    cfg.options.precision = prec;
    solver::BarotropicSolver bs(comm, *c.halo, *c.grid, c.depth,
                                *c.stencil, *c.decomp, cfg);
    solver::SolveStats stats;
    comm::DistField xs(*c.decomp, 0);
    const double secs = time_best(
        [&] {
          xs.fill(0.0);
          stats = bs.solve(comm, b, xs);
        },
        3);
    solves.push_back({mode, tol, stats.iterations, stats.refine_sweeps,
                      secs, stats.relative_residual, stats.converged});
    std::printf("%-6s tol %.0e: %5d iters, %2d sweeps, %8.2f ms/solve, "
                "rel=%.3e%s\n",
                mode.c_str(), tol, stats.iterations, stats.refine_sweeps,
                secs * 1e3, stats.relative_residual,
                stats.converged ? "" : "  NOT CONVERGED");
  };
  std::printf("\nend-to-end pcsi+block-evp solves (%dx%d):\n", nx, ny);
  run_mode("fp64", solver::Precision::kFp64, 1e-10);
  run_mode("mixed", solver::Precision::kMixed, 1e-10);
  run_mode("fp64", solver::Precision::kFp64, 1e-5);
  run_mode("fp32", solver::Precision::kFp32, 1e-5);

  // ------------------------------------------------------------------
  // 4. Tolerance-vs-RMSE sweep (Figure-12 style) on two grids.
  // ------------------------------------------------------------------
  const std::vector<double> tolerances = {1e-10, 1e-12};
  const double reference_tol = 1e-15;
  const int months = 2;
  std::vector<RmseRow> rmse_rows;
  bool mixed_matches = true;
  for (const double scale : {0.06, 0.08}) {
    stats::EnsembleConfig base;
    base.model.grid = grid::pop_1deg_spec(scale);
    base.model.nz = 3;
    base.model.block_size = 12;
    base.model.nranks = 1;
    base.months = months;
    const std::string gname = std::to_string(base.model.grid.nx) + "x" +
                              std::to_string(base.model.grid.ny);
    std::printf("\ntolerance-vs-RMSE sweep, grid %s, month %d vs fp64 "
                "tol %.0e reference:\n",
                gname.c_str(), months, reference_tol);

    auto run_with = [&](double tol, solver::Precision prec) {
      auto cfg = base;
      cfg.model.solver.options.rel_tolerance = tol;
      cfg.model.solver.options.precision = prec;
      return stats::run_member(cfg, /*member=*/-1);
    };
    const auto reference =
        run_with(reference_tol, solver::Precision::kFp64);
    comm::SerialComm probe_comm;
    model::OceanModel probe(probe_comm, base.model);
    const auto mask = grid::ocean_mask(probe.depth());

    double loosest_fp64_rmse = 0;
    for (const double tol : tolerances) {
      RmseRow row;
      row.grid = gname;
      row.nx = base.model.grid.nx;
      row.ny = base.model.grid.ny;
      row.tolerance = tol;
      row.rmse_fp64 =
          stats::rmse(run_with(tol, solver::Precision::kFp64).back(),
                      reference.back(), mask);
      row.rmse_mixed =
          stats::rmse(run_with(tol, solver::Precision::kMixed).back(),
                      reference.back(), mask);
      if (tol == tolerances.front()) loosest_fp64_rmse = row.rmse_fp64;
      rmse_rows.push_back(row);
      std::printf("  tol %.0e: rmse fp64 %.3e, mixed %.3e\n", tol,
                  row.rmse_fp64, row.rmse_mixed);
    }
    // The tolerance-equivalent error bar: an honestly-converged fp64
    // solve at the loosest tested tolerance. Mixed must stay below it at
    // EVERY tested tolerance (it converges on the true fp64 residual, so
    // it should track the fp64 curve, orders below this bar at the
    // tighter tolerances).
    for (const auto& row : rmse_rows)
      if (row.grid == gname && row.rmse_mixed > loosest_fp64_rmse * 3.0)
        mixed_matches = false;
  }
  std::printf("\nmixed matches fp64 (RMSE below the tolerance-equivalent "
              "error on every grid): %s\n",
              mixed_matches ? "yes" : "NO");

  // ------------------------------------------------------------------
  // JSON snapshot.
  // ------------------------------------------------------------------
  std::ofstream os(json_path);
  os.precision(6);
  os << "{\n"
     << "  \"bench\": \"precision\",\n"
     << "  \"grid\": {\"nx\": " << nx << ", \"ny\": " << ny << "},\n"
     << "  \"kernels\": [\n";
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const auto& kr = kernels[k];
    os << "    {\"name\": \"" << kr.name << "\", \"precision\": \""
       << kr.precision << "\", \"ns_per_point\": "
       << kr.seconds / kr.points * 1e9 << ", \"gb_equiv_per_s\": "
       << kr.gb_equiv_per_s() << "}"
       << (k + 1 < kernels.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"fp32_speedup\": {\"apply9\": " << sp_apply
     << ", \"residual9\": " << sp_residual << ", \"evp_sweep\": " << sp_evp
     << ", \"evp_apply\": " << sp_evp_apply << "},\n"
     << "  \"halo_bytes_per_exchange\": {\"fp64\": " << halo_bytes64
     << ", \"fp32\": " << halo_bytes32 << "},\n"
     << "  \"solves\": [\n";
  for (std::size_t k = 0; k < solves.size(); ++k) {
    const auto& s = solves[k];
    os << "    {\"mode\": \"" << s.mode << "\", \"tolerance\": "
       << s.tolerance << ", \"iterations\": " << s.iterations
       << ", \"refine_sweeps\": " << s.refine_sweeps << ", \"seconds\": "
       << s.seconds << ", \"relative_residual\": " << s.rel_residual
       << ", \"converged\": " << (s.converged ? "true" : "false") << "}"
       << (k + 1 < solves.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"tolerance_rmse\": [\n";
  for (std::size_t k = 0; k < rmse_rows.size(); ++k) {
    const auto& t = rmse_rows[k];
    os << "    {\"grid\": \"" << t.grid << "\", \"tolerance\": "
       << t.tolerance << ", \"rmse_fp64\": " << t.rmse_fp64
       << ", \"rmse_mixed\": " << t.rmse_mixed << "}"
       << (k + 1 < rmse_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"mixed_matches_fp64\": "
     << (mixed_matches ? "true" : "false") << "\n}\n";
  os.flush();
  if (!os.good()) {
    std::fprintf(stderr, "\nerror: could not write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return mixed_matches ? 0 : 1;
}
