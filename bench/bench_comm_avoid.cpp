// Communication-avoiding P-CSI benchmark (DESIGN.md §13): measured
// halo-round reduction from depth-k ghost zones on a 4-rank ThreadComm
// team, plus the modeled Yellowstone/Edison crossover curves the depth
// autotuner optimizes over.
//
// Measured part: the same bowl-with-island problem bench_batch uses
// (small per-rank subdomains — the strong-scaling regime where message
// latency rivals stencil flops), solved at halo depth k in {1, 2, 3, 4}.
// Each row reports wall time, per-solve halo rounds / messages / bytes,
// total and redundant flops, and a bitwise-identity flag against the
// depth-1 solve — the depth-k schedule reproduces the depth-1 bits
// exactly, so the rounds drop ~k x while the answer does not move.
//
// Latency part: ThreadComm's own cost per call on 2 and 4 ranks — a
// ping-pong round trip of a 1-double message and of one halo message
// the size of `sim_diag_r4`'s mean (655 doubles, 5,240 B), and a
// 1-double allreduce — as the median and quartiles of 2000 timed calls.
// They are the message and reduction latencies a machine profile fitted
// to the running host needs; no gate reads them.
//
// Modeled part: comm_avoid_iteration_costs() swept over p in
// {1024..16384} ranks and k in {1..4} on the paper's 0.1-degree grid
// for the Yellowstone and Edison profiles, with choose_halo_depth()'s
// pick per p — the crossover from k=1 (compute-bound, redundant rim
// flops dominate) to k>1 (latency-bound, message count dominates).
//
// Run from the repo root so BENCH_comm_avoid.json lands there:
//
//   ./build/bench/bench_comm_avoid [output.json]
//   ./build/bench/bench_comm_avoid --smoke  # CI: k in {1,2}, asserts
//                                           # identity and rounds
//                                           # ratio >= 1.8 at k=2
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/perf/cost_equations.hpp"
#include "src/util/rng.hpp"

using namespace minipop;

namespace {

constexpr int kLatencyCalls = 2000;

/// Bowl-with-island bathymetry, 16 blocks of 12x10 over 4 ranks — the
/// same latency-bound regime as bench_batch. Interior blocks are 12x10,
/// so every depth up to kMaxHaloDepth = 4 fits.
struct Case {
  std::unique_ptr<grid::CurvilinearGrid> grid;
  util::Field depth;
  std::unique_ptr<grid::NinePointStencil> stencil;
  std::unique_ptr<grid::Decomposition> decomp;
  std::unique_ptr<comm::HaloExchanger> halo;

  Case(int nx, int ny, int bx, int by, int nranks) {
    grid::GridSpec spec;
    spec.kind = grid::GridKind::kUniform;
    spec.nx = nx;
    spec.ny = ny;
    spec.periodic_x = false;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<grid::CurvilinearGrid>(spec);
    depth = grid::bowl_bathymetry(*grid, 4000.0);
    for (int j = ny / 2 - 1; j <= ny / 2 + 1; ++j)
      for (int i = nx / 2 - 2; i <= nx / 2 + 2; ++i)
        depth(i, j) = 0.0;  // island in the bowl
    stencil = std::make_unique<grid::NinePointStencil>(*grid, depth, 1e-6);
    decomp = std::make_unique<grid::Decomposition>(
        nx, ny, false, stencil->mask(), bx, by, nranks);
    halo = std::make_unique<comm::HaloExchanger>(*decomp);
  }

  util::Field random_rhs(std::uint64_t seed) const {
    util::Xoshiro256 rng(seed);
    util::Field b(grid->nx(), grid->ny(), 0.0);
    for (int j = 0; j < grid->ny(); ++j)
      for (int i = 0; i < grid->nx(); ++i)
        if (stencil->mask()(i, j)) b(i, j) = rng.uniform(-1, 1);
    return b;
  }
};

solver::SolverConfig pcsi_config(int halo_depth) {
  solver::SolverConfig cfg;
  cfg.solver = solver::SolverKind::kPcsi;
  cfg.preconditioner = solver::PreconditionerKind::kDiagonal;
  cfg.options.rel_tolerance = 1e-10;
  cfg.options.halo_depth = halo_depth;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  return cfg;
}

struct Row {
  int depth = 0;
  double seconds = 0;        ///< best-of-repeats, one solve
  int iterations = 0;
  bool identity_ok = true;   ///< bits == the depth-1 solve's bits
  // Rank-0 per-solve communication and arithmetic counts.
  std::uint64_t halo_exchanges = 0, p2p_messages = 0, p2p_bytes = 0;
  std::uint64_t flops = 0, redundant_flops = 0;
};

/// Solve the same system at `depth` on `nranks` ranks; returns rank-0
/// counters, best-of-`repeats` wall time, and the gathered solution in
/// `x_out`.
Row run_depth(const Case& c, int nranks, int depth, int repeats,
              util::Field& x_out) {
  using clock = std::chrono::steady_clock;
  Row row;
  row.depth = depth;
  const util::Field rhs = c.random_rhs(4000);
  x_out = util::Field(c.grid->nx(), c.grid->ny(), 0.0);

  comm::ThreadTeam team(nranks);
  team.run([&](comm::Communicator& comm) {
    const int r = comm.rank();
    solver::BarotropicSolver solver(comm, *c.halo, *c.grid, c.depth,
                                    *c.stencil, *c.decomp,
                                    pcsi_config(depth));
    comm::DistField b(*c.decomp, r), x(*c.decomp, r);
    b.load_global(rhs);
    for (int rep = 0; rep < repeats; ++rep) {
      x.fill(0.0);
      (void)comm.allreduce_sum(0.0);  // align ranks before timing
      const auto snap = comm.costs().counters();
      const auto t0 = clock::now();
      const auto stats = solver.solve(comm, b, x);
      const double t =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (r == 0) {
        if (rep == 0) {
          const auto costs = comm.costs().since(snap);
          row.iterations = stats.iterations;
          row.halo_exchanges = costs.halo_exchanges;
          row.p2p_messages = costs.p2p_messages;
          row.p2p_bytes = costs.p2p_bytes;
          row.flops = costs.flops;
          row.redundant_flops = costs.redundant_flops;
        }
        row.seconds = rep == 0 ? t : std::min(row.seconds, t);
      }
    }
    x.store_global(x_out);
  });
  return row;
}

/// One latency row: quartiles of the per-call wall times of `op`.
struct LatencyRow {
  int ranks = 0;
  std::string op;
  std::size_t bytes = 0;  ///< message or reduction payload
  std::size_t calls = 0;
  double p25_us = 0, median_us = 0, p75_us = 0;
};

LatencyRow summarize(int ranks, std::string op, std::size_t bytes,
                     std::vector<double> us) {
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    return us[static_cast<std::size_t>(q * (us.size() - 1))];
  };
  return {ranks, std::move(op), bytes, us.size(), at(0.25), at(0.5),
          at(0.75)};
}

/// Times `calls` ping-pong round trips of `doubles`-element messages and
/// `calls` 1-double allreduces on `nranks` ranks, after `calls` untimed
/// warm-up calls each. Ranks pair up as (r, r^1), every pair bouncing at
/// once as halo exchanges do; the even rank of pair 0 (rank 0) records.
std::vector<LatencyRow> measure_latency(int nranks,
                                        const std::vector<int>& sizes,
                                        int calls) {
  using clock = std::chrono::steady_clock;
  std::vector<LatencyRow> rows;
  comm::ThreadTeam team(nranks);
  team.run([&](comm::Communicator& comm) {
    const int r = comm.rank();
    const int partner = r ^ 1;
    const auto elapsed_us = [](clock::time_point t0) {
      return std::chrono::duration<double, std::micro>(clock::now() - t0)
          .count();
    };
    std::vector<double> us(calls);
    for (const int doubles : sizes) {
      std::vector<double> msg(doubles, 1.0);
      (void)comm.allreduce_sum(0.0);  // align ranks before timing
      for (int k = -calls; k < calls; ++k) {
        const auto t0 = clock::now();
        if (r % 2 == 0) {
          comm.send(partner, 1, std::span<const double>(msg));
          comm.recv(partner, 1, std::span<double>(msg));
        } else {
          comm.recv(partner, 1, std::span<double>(msg));
          comm.send(partner, 1, std::span<const double>(msg));
        }
        if (k >= 0) us[k] = elapsed_us(t0);
      }
      if (r == 0)
        rows.push_back(summarize(nranks,
                                 "pingpong_" + std::to_string(doubles),
                                 doubles * sizeof(double), us));
    }
    for (int k = -calls; k < calls; ++k) {
      double v = 1.0;
      const auto t0 = clock::now();
      comm.allreduce(std::span<double>(&v, 1), comm::ReduceOp::kSum);
      if (k >= 0) us[k] = elapsed_us(t0);
    }
    if (r == 0)
      rows.push_back(summarize(nranks, "allreduce_1", sizeof(double), us));
  });
  return rows;
}

struct ModelPoint {
  std::string machine;
  int ranks = 0;
  int depth = 0;
  double ocean_fraction = 1.0;
  perf::IterationCosts costs;
  int chosen = 0;  ///< choose_halo_depth() for this (machine, ranks)
};

std::vector<ModelPoint> model_curves() {
  const long points = 3600L * 2400;  // the paper's 0.1-degree grid
  const int check_frequency = 10;
  const std::pair<std::string, perf::MachineProfile> machines[] = {
      {"yellowstone", perf::yellowstone_profile()},
      {"edison", perf::edison_profile()}};
  // ofrac = 1 is the dense sweep; 0.65 is roughly Earth's ocean share
  // of the active blocks — under span execution the cheaper sweeps pull
  // the latency/redundant-work crossover toward deeper ghost zones.
  const double ocean_fractions[] = {1.0, 0.65};
  std::vector<ModelPoint> out;
  for (const auto& [name, m] : machines)
    for (double ofrac : ocean_fractions)
      for (int p : {1024, 2048, 4096, 8192, 16384}) {
        const int chosen = perf::choose_halo_depth(
            m, perf::Config::kPcsiDiag, points, p, check_frequency, 4,
            ofrac);
        for (int k = 1; k <= 4; ++k) {
          ModelPoint pt;
          pt.machine = name;
          pt.ranks = p;
          pt.depth = k;
          pt.ocean_fraction = ofrac;
          pt.costs = perf::comm_avoid_iteration_costs(
              m, perf::Config::kPcsiDiag, points, p, check_frequency, k,
              ofrac);
          pt.chosen = chosen;
          out.push_back(pt);
        }
      }
  return out;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<LatencyRow>& latency,
                const std::vector<ModelPoint>& model) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"comm_avoid\",\n"
     << "  \"solver\": \"pcsi+diagonal\",\n  \"measured\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& w = rows[k];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"halo_depth\": %d, \"seconds\": %.6e, \"iterations\": %d, "
        "\"identity_ok\": %s, \"halo_exchanges\": %llu, "
        "\"p2p_messages\": %llu, \"p2p_bytes\": %llu, \"flops\": %llu, "
        "\"redundant_flops\": %llu}%s\n",
        w.depth, w.seconds, w.iterations, w.identity_ok ? "true" : "false",
        static_cast<unsigned long long>(w.halo_exchanges),
        static_cast<unsigned long long>(w.p2p_messages),
        static_cast<unsigned long long>(w.p2p_bytes),
        static_cast<unsigned long long>(w.flops),
        static_cast<unsigned long long>(w.redundant_flops),
        k + 1 < rows.size() ? "," : "");
    os << buf;
  }
  os << "  ],\n  \"latency\": [\n";
  for (std::size_t k = 0; k < latency.size(); ++k) {
    const LatencyRow& w = latency[k];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"ranks\": %d, \"op\": \"%s\", \"bytes\": %zu, "
                  "\"calls\": %zu, \"p25_us\": %.3f, \"median_us\": %.3f, "
                  "\"p75_us\": %.3f}%s\n",
                  w.ranks, w.op.c_str(), w.bytes, w.calls, w.p25_us,
                  w.median_us, w.p75_us, k + 1 < latency.size() ? "," : "");
    os << buf;
  }
  os << "  ],\n  \"model\": [\n";
  for (std::size_t k = 0; k < model.size(); ++k) {
    const ModelPoint& w = model[k];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"machine\": \"%s\", \"ranks\": %d, \"halo_depth\": %d, "
        "\"ocean_fraction\": %.2f, "
        "\"computation\": %.6e, \"halo\": %.6e, \"reduction\": %.6e, "
        "\"total\": %.6e, \"chosen_depth\": %d}%s\n",
        w.machine.c_str(), w.ranks, w.depth, w.ocean_fraction,
        w.costs.computation, w.costs.halo, w.costs.reduction,
        w.costs.total(), w.chosen, k + 1 < model.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] =
      bench::parse_bench_args(argc, argv, "BENCH_comm_avoid.json", true);

  bench::print_header("comm_avoid",
                      "depth-k ghost zones: measured halo-round "
                      "reduction + modeled depth crossover");

  const std::vector<int> depths =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 3, 4};
  const int nranks = 4;
  const int repeats = smoke ? 2 : 3;
  Case c(48, 40, 12, 10, nranks);

  std::vector<Row> rows;
  util::Field x_base;
  std::printf("%6s %12s %6s %9s %9s %12s %14s %9s %6s\n", "depth",
              "seconds", "iters", "rounds", "msgs", "flops",
              "redundant", "round_x", "bits");
  for (const int depth : depths) {
    util::Field x;
    Row row = run_depth(c, nranks, depth, repeats, x);
    if (depth == 1) {
      x_base = x;
    } else {
      for (int j = 0; j < x.ny() && row.identity_ok; ++j)
        for (int i = 0; i < x.nx(); ++i)
          if (x(i, j) != x_base(i, j)) {
            row.identity_ok = false;
            break;
          }
    }
    rows.push_back(row);
    const double round_ratio =
        static_cast<double>(rows.front().halo_exchanges) /
        static_cast<double>(row.halo_exchanges);
    std::printf("%6d %12.3e %6d %9llu %9llu %12llu %14llu %8.2fx %6s\n",
                row.depth, row.seconds, row.iterations,
                static_cast<unsigned long long>(row.halo_exchanges),
                static_cast<unsigned long long>(row.p2p_messages),
                static_cast<unsigned long long>(row.flops),
                static_cast<unsigned long long>(row.redundant_flops),
                round_ratio, row.identity_ok ? "ok" : "DIFFER");
  }

  // 655 doubles: the mean halo message of sim_diag_r4 (5,241 B =
  // comm.bytes_per_step / comm.msgs_per_step) in whole doubles.
  std::vector<LatencyRow> latency;
  std::printf("\nThreadComm latency per call, %d calls each (us):\n",
              kLatencyCalls);
  std::printf("%6s %14s %8s %9s %9s %9s\n", "ranks", "op", "bytes", "p25",
              "median", "p75");
  for (const int p : {2, 4})
    for (const LatencyRow& w : measure_latency(p, {1, 655}, kLatencyCalls)) {
      std::printf("%6d %14s %8zu %9.2f %9.2f %9.2f\n", w.ranks, w.op.c_str(),
                  w.bytes, w.p25_us, w.median_us, w.p75_us);
      latency.push_back(w);
    }

  const std::vector<ModelPoint> model = model_curves();
  std::printf("\nmodeled per-iteration cost, 0.1-degree grid "
              "(3600x2400), check frequency 10:\n");
  std::printf("%12s %7s %6s %6s %12s %12s %12s %12s %7s\n", "machine",
              "ranks", "k", "ofrac", "compute_s", "halo_s", "reduce_s",
              "total_s", "chosen");
  for (const ModelPoint& w : model)
    std::printf("%12s %7d %6d %6.2f %12.3e %12.3e %12.3e %12.3e %7d\n",
                w.machine.c_str(), w.ranks, w.depth, w.ocean_fraction,
                w.costs.computation, w.costs.halo, w.costs.reduction,
                w.costs.total(), w.chosen);

  write_json(json_path, rows, latency, model);
  std::printf("\nwrote %s\n", json_path.c_str());

  bool ok = true;
  for (const Row& w : rows) {
    if (!w.identity_ok) {
      std::printf("FAIL: depth-%d solve differs bitwise from depth-1\n",
                  w.depth);
      ok = false;
    }
    if (w.depth > 1 && w.redundant_flops == 0) {
      std::printf("FAIL: depth-%d solve reports no redundant flops\n",
                  w.depth);
      ok = false;
    }
  }
  if (rows.front().redundant_flops != 0) {
    std::printf("FAIL: depth-1 solve reports redundant flops\n");
    ok = false;
  }
  for (const Row& w : rows) {
    if (w.depth != 2) continue;
    const double ratio = static_cast<double>(rows.front().halo_exchanges) /
                         static_cast<double>(w.halo_exchanges);
    if (ratio < 1.8) {
      std::printf("FAIL: halo-round reduction %.2fx < 1.8x at k=2\n",
                  ratio);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
