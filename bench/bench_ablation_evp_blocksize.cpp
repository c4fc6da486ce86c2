// Ablation: EVP tile size vs numerical stability and preconditioner
// effectiveness. Reproduces the paper's §4.3 claims that (a) marching
// round-off grows with tile size and is ~1e-8 at 12x12 in double
// precision, and (b) larger (stable) tiles give a stronger
// preconditioner (fewer ChronGear iterations), which is why POP uses
// whole process blocks at high core counts.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/evp/evp_solver.hpp"
#include "src/linalg/dense.hpp"
#include "src/util/rng.hpp"

using namespace minipop;

namespace {

/// Direct-solve relative error of an n x n EVP tile (flat-depth tile).
double tile_error(int n) {
  grid::GridSpec spec;
  spec.kind = grid::GridKind::kUniform;
  spec.nx = n;
  spec.ny = n;
  spec.periodic_x = false;
  spec.dx = 1e4;
  spec.dy = 1.15e4;
  grid::CurvilinearGrid g(spec);
  auto depth = grid::flat_bathymetry(g, 3500.0);
  grid::NinePointStencil st(g, depth, 1e-6);
  std::array<util::Field, grid::kNumDirs> coeff;
  for (int d = 0; d < grid::kNumDirs; ++d)
    coeff[d] = st.coeff(static_cast<grid::Dir>(d));
  evp::EvpOptions opt;
  opt.validate_accuracy = -1;  // instability is the subject
  evp::EvpTileSolver evp(coeff, 0, 0, n, n, opt);
  return evp.measured_accuracy();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts(argc, argv, "[--scale=0.2]");
  const double scale = opts.get_double("scale", 0.2);
  opts.finish();

  bench::print_header("Ablation: EVP tile size",
                      "marching round-off vs tile size (paper Sec. 4.3: "
                      "stable to ~1e-8 at 12x12)");
  util::Table t({"tile", "relative solve error"});
  for (int n : {4, 6, 8, 10, 12, 16, 20, 24}) {
    std::ostringstream os;
    os.precision(2);
    os << std::scientific << tile_error(n);
    t.row().add(std::to_string(n) + "x" + std::to_string(n)).add(os.str());
  }
  t.print(std::cout);

  bench::print_header("Ablation: EVP tile size",
                      "preconditioner strength: ChronGear iterations vs "
                      "max tile (live 1deg-scaled grid)");
  auto c = bench::make_live_case("1deg", scale, 12);
  util::Table t2({"max tile", "chrongear iterations"});
  // Diagonal baseline.
  {
    auto cfg = bench::config_for(perf::Config::kCgDiag, 1e-12);
    auto res = bench::measure_iterations(c, cfg);
    t2.row().add("(diagonal)").add(res.mean_iterations, 1);
  }
  for (int tile : {3, 4, 6, 8, 12}) {
    auto cfg = bench::config_for(perf::Config::kCgEvp, 1e-12, tile);
    auto res = bench::measure_iterations(c, cfg);
    t2.row().add_int(tile).add(res.mean_iterations, 1);
  }
  t2.print(std::cout);
  std::cout << "\nShape check: error grows roughly geometrically with "
               "tile size; iteration\ncounts fall as tiles grow (stronger "
               "block preconditioner) — the trade-off that\nfixes 12x12 "
               "as the practical tile size.\n";
  return 0;
}
