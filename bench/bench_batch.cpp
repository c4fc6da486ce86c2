// Batched multi-RHS solver benchmark: throughput of ONE batched P-CSI
// solve of B systems versus B sequential scalar solves of the same
// systems, on a serial rank and on a 4-rank ThreadComm team, for
// B in {1, 2, 4, 8, 16}.
//
// For each (nranks, B) the harness reports solves/sec both ways, the
// "batch efficiency" (batched solves/sec divided by sequential
// solves/sec — the Fig-13 ensemble speedup a batch of that width buys),
// the per-solve halo rounds / point-to-point messages / allreduce calls
// from the CostTracker (the batch amortises every exchange and
// reduction across its members, so per-solve counts drop ~B×), and a
// bitwise identity check of every batched member against its scalar
// twin.
//
// Run from the repo root so BENCH_batch.json lands there:
//
//   ./build/bench/bench_batch [output.json]
//   ./build/bench/bench_batch --smoke   # CI: B=4 on 4 ranks, asserts
//                                       # efficiency > 1 and identity;
//                                       # block-EVP B=8, identity only
//
// A second table runs P-CSI with the block-EVP preconditioner on one
// rank, B in {1, 2, 4, 8, 16}, with the same bitwise member check. Full
// groups of 8 members run the EVP apply with members as lanes; the
// others (B < 8) go one at a time through the tile packs, so their batch
// efficiency sits near 1. `--smoke` runs it at B = 8 and gates on
// identity only.
//
// A third table runs one batched solve through the composed decorator
// stack (core + resilience) against the plain batch of the same
// systems; the composition must be free: bitwise-identical members and
// the same halo payload.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/util/rng.hpp"

using namespace minipop;

namespace {

/// Bowl-with-island bathymetry on a uniform grid. The grid is sized for
/// the paper's strong-scaling regime — SMALL per-rank subdomains (16
/// blocks of 12x10, four per rank at 4 ranks) where per-iteration
/// latency (halo handshakes, reduction barriers) rivals the stencil
/// flops. That is exactly where POP's barotropic solver lives at scale
/// and where batching pays: the batch amortises every handshake across
/// B members while the flops stay the same.
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

solver::SolverConfig pcsi_config(
    solver::PreconditionerKind precond =
        solver::PreconditionerKind::kDiagonal) {
  solver::SolverConfig cfg;
  cfg.solver = solver::SolverKind::kPcsi;
  cfg.preconditioner = precond;
  cfg.options.rel_tolerance = 1e-10;
  cfg.resilient = false;
  cfg.lanczos.rel_tolerance = 0.02;
  return cfg;
}

/// The composed stack: the resilience decorator riding the batched core
/// (DESIGN.md §11).
solver::SolverConfig composed_config() {
  solver::SolverConfig cfg = pcsi_config();
  cfg.resilient = true;
  return cfg;
}

struct Row {
  int nranks = 0;
  int batch = 0;
  double seq_seconds = 0;    ///< best-of-repeats, B sequential solves
  double batch_seconds = 0;  ///< best-of-repeats, one B-member solve
  bool identity_ok = true;   ///< batched bits == scalar bits, all members
  int iterations_seq = 0;    ///< sum over the B scalar solves
  int iterations_batch = 0;  ///< lockstep iterations of the batched solve
  // Rank-0 per-solve communication counts (whole B-sweep divided by B).
  double halo_exchanges_seq = 0, halo_exchanges_batch = 0;
  double p2p_messages_seq = 0, p2p_messages_batch = 0;
  double allreduces_seq = 0, allreduces_batch = 0;

  double solves_per_sec_seq() const { return batch / seq_seconds; }
  double solves_per_sec_batch() const { return batch / batch_seconds; }
  double efficiency() const { return seq_seconds / batch_seconds; }
};

/// Run the B-vs-sequential comparison of `cfg` on `nranks` ranks. The
/// body is executed by every rank; collectives keep the ranks in
/// lockstep, so rank 0's wall-clock around a collective-bounded region
/// times the team. Repeats take the best time; costs and identity come
/// from the first repeat.
Row run_case(const Case& c, const solver::SolverConfig& cfg, int nranks,
             int batch, int repeats) {
  using clock = std::chrono::steady_clock;
  Row row;
  row.nranks = nranks;
  row.batch = batch;

  std::vector<util::Field> rhs;
  for (int m = 0; m < batch; ++m)
    rhs.push_back(c.random_rhs(4000 + static_cast<std::uint64_t>(m)));
  std::vector<util::Field> x_seq(batch), x_bat(batch);
  for (int m = 0; m < batch; ++m) {
    x_seq[m] = util::Field(c.grid->nx(), c.grid->ny(), 0.0);
    x_bat[m] = util::Field(c.grid->nx(), c.grid->ny(), 0.0);
  }

  auto body = [&](comm::Communicator& comm) {
    const int r = comm.rank();
    solver::BarotropicSolver solver(comm, *c.halo, *c.grid, c.depth,
                                    *c.stencil, *c.decomp, cfg);
    std::vector<comm::DistField> b, x;
    for (int m = 0; m < batch; ++m) {
      b.emplace_back(*c.decomp, r);
      x.emplace_back(*c.decomp, r);
      b.back().load_global(rhs[m]);
    }
    std::vector<const comm::DistField*> bs;
    std::vector<comm::DistField*> xs;
    for (int m = 0; m < batch; ++m) {
      bs.push_back(&b[m]);
      xs.push_back(&x[m]);
    }

    for (int rep = 0; rep < repeats; ++rep) {
      // Sequential: B scalar solves.
      for (auto& f : x) f.fill(0.0);
      (void)comm.allreduce_sum(0.0);  // align ranks before timing
      auto snap = comm.costs().counters();
      const auto t0 = clock::now();
      int it_seq = 0;
      for (int m = 0; m < batch; ++m)
        it_seq += solver.solve(comm, b[m], x[m]).iterations;
      const double t_seq =
          std::chrono::duration<double>(clock::now() - t0).count();
      const auto seq_costs = comm.costs().since(snap);
      if (rep == 0 && r == 0) {
        row.iterations_seq = it_seq;
        row.halo_exchanges_seq =
            static_cast<double>(seq_costs.halo_exchanges) / batch;
        row.p2p_messages_seq =
            static_cast<double>(seq_costs.p2p_messages) / batch;
        row.allreduces_seq =
            static_cast<double>(seq_costs.allreduces) / batch;
        for (int m = 0; m < batch; ++m) x[m].store_global(x_seq[m]);
      }

      // Batched: one B-member solve of the same systems.
      for (auto& f : x) f.fill(0.0);
      (void)comm.allreduce_sum(0.0);
      snap = comm.costs().counters();
      const auto t1 = clock::now();
      const auto stats = solver.solve_batch(comm, bs, xs);
      const double t_bat =
          std::chrono::duration<double>(clock::now() - t1).count();
      const auto bat_costs = comm.costs().since(snap);
      if (rep == 0 && r == 0) {
        row.iterations_batch = stats.iterations;
        row.halo_exchanges_batch =
            static_cast<double>(bat_costs.halo_exchanges) / batch;
        row.p2p_messages_batch =
            static_cast<double>(bat_costs.p2p_messages) / batch;
        row.allreduces_batch =
            static_cast<double>(bat_costs.allreduces) / batch;
        for (int m = 0; m < batch; ++m) x[m].store_global(x_bat[m]);
      }
      if (r == 0) {
        row.seq_seconds =
            rep == 0 ? t_seq : std::min(row.seq_seconds, t_seq);
        row.batch_seconds =
            rep == 0 ? t_bat : std::min(row.batch_seconds, t_bat);
      }
    }
  };

  if (nranks == 1) {
    comm::SerialComm comm;
    body(comm);
  } else {
    comm::ThreadTeam team(nranks);
    team.run(body);
  }

  for (int m = 0; m < batch; ++m)
    for (int j = 0; j < x_seq[m].ny() && row.identity_ok; ++j)
      for (int i = 0; i < x_seq[m].nx(); ++i)
        if (x_seq[m](i, j) != x_bat[m](i, j)) {
          row.identity_ok = false;
          break;
        }
  return row;
}

/// One batched solve through the composed decorator stack versus one
/// plain fp64 batched solve of the same systems. Resilience must not
/// change a single bit of any member, nor the halo payload (the
/// decorator adds one agreement allreduce, no point-to-point traffic).
struct ComposedRow {
  int nranks = 0;
  int batch = 0;
  double fp64_seconds = 0;      ///< best-of-repeats, fp64 batched solve
  double composed_seconds = 0;  ///< best-of-repeats, composed solve
  bool converged = true;        ///< all members, composed stack
  double max_residual = 0;      ///< worst member relative residual
  bool identity_ok = true;      ///< composed bits == fp64 bits, all members
  /// Rank 0's halo payload of each solve.
  std::uint64_t p2p_bytes_fp64 = 0, p2p_bytes_composed = 0;
};

ComposedRow run_composed(const Case& c, int nranks, int batch,
                         int repeats) {
  using clock = std::chrono::steady_clock;
  ComposedRow row;
  row.nranks = nranks;
  row.batch = batch;

  std::vector<util::Field> rhs;
  for (int m = 0; m < batch; ++m)
    rhs.push_back(c.random_rhs(5000 + static_cast<std::uint64_t>(m)));
  std::vector<util::Field> x_fp64(batch), x_comp(batch);
  for (int m = 0; m < batch; ++m) {
    x_fp64[m] = util::Field(c.grid->nx(), c.grid->ny(), 0.0);
    x_comp[m] = util::Field(c.grid->nx(), c.grid->ny(), 0.0);
  }

  auto body = [&](comm::Communicator& comm) {
    const int r = comm.rank();
    solver::BarotropicSolver fp64(comm, *c.halo, *c.grid, c.depth,
                                  *c.stencil, *c.decomp, pcsi_config());
    solver::BarotropicSolver composed(comm, *c.halo, *c.grid, c.depth,
                                      *c.stencil, *c.decomp,
                                      composed_config());
    std::vector<comm::DistField> b, x;
    for (int m = 0; m < batch; ++m) {
      b.emplace_back(*c.decomp, r);
      x.emplace_back(*c.decomp, r);
      b.back().load_global(rhs[m]);
    }
    std::vector<const comm::DistField*> bs;
    std::vector<comm::DistField*> xs;
    for (int m = 0; m < batch; ++m) {
      bs.push_back(&b[m]);
      xs.push_back(&x[m]);
    }

    for (int rep = 0; rep < repeats; ++rep) {
      for (auto& f : x) f.fill(0.0);
      (void)comm.allreduce_sum(0.0);
      auto snap = comm.costs().counters();
      const auto t0 = clock::now();
      (void)fp64.solve_batch(comm, bs, xs);
      const double t_fp64 =
          std::chrono::duration<double>(clock::now() - t0).count();
      const auto fp64_costs = comm.costs().since(snap);
      // Every rank gathers its own blocks (disjoint interiors).
      if (rep == 0)
        for (int m = 0; m < batch; ++m) x[m].store_global(x_fp64[m]);

      for (auto& f : x) f.fill(0.0);
      (void)comm.allreduce_sum(0.0);
      snap = comm.costs().counters();
      const auto t1 = clock::now();
      const auto stats = composed.solve_batch(comm, bs, xs);
      const double t_comp =
          std::chrono::duration<double>(clock::now() - t1).count();
      const auto comp_costs = comm.costs().since(snap);
      if (rep == 0)
        for (int m = 0; m < batch; ++m) x[m].store_global(x_comp[m]);

      if (r == 0) {
        if (rep == 0) {
          row.p2p_bytes_fp64 = fp64_costs.p2p_bytes;
          row.p2p_bytes_composed = comp_costs.p2p_bytes;
          for (const auto& ms : stats.members) {
            row.converged = row.converged && ms.converged;
            row.max_residual =
                std::max(row.max_residual, ms.relative_residual);
          }
        }
        row.fp64_seconds =
            rep == 0 ? t_fp64 : std::min(row.fp64_seconds, t_fp64);
        row.composed_seconds =
            rep == 0 ? t_comp : std::min(row.composed_seconds, t_comp);
      }
    }
  };

  if (nranks == 1) {
    comm::SerialComm comm;
    body(comm);
  } else {
    comm::ThreadTeam team(nranks);
    team.run(body);
  }

  for (int m = 0; m < batch; ++m)
    if (std::memcmp(x_comp[m].data(), x_fp64[m].data(),
                    x_fp64[m].size() * sizeof(double)) != 0)
      row.identity_ok = false;
  return row;
}

void write_rows(std::ofstream& os, const std::vector<Row>& rows) {
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& w = rows[k];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nranks\": %d, \"batch\": %d, "
        "\"seq_seconds\": %.6e, \"batch_seconds\": %.6e, "
        "\"solves_per_sec_seq\": %.3f, \"solves_per_sec_batch\": %.3f, "
        "\"efficiency\": %.3f, \"identity_ok\": %s, "
        "\"iterations_seq\": %d, \"iterations_batch\": %d, "
        "\"per_solve\": {\"halo_exchanges_seq\": %.1f, "
        "\"halo_exchanges_batch\": %.2f, \"p2p_messages_seq\": %.1f, "
        "\"p2p_messages_batch\": %.2f, \"allreduces_seq\": %.1f, "
        "\"allreduces_batch\": %.2f}}%s\n",
        w.nranks, w.batch, w.seq_seconds, w.batch_seconds,
        w.solves_per_sec_seq(), w.solves_per_sec_batch(), w.efficiency(),
        w.identity_ok ? "true" : "false", w.iterations_seq,
        w.iterations_batch, w.halo_exchanges_seq, w.halo_exchanges_batch,
        w.p2p_messages_seq, w.p2p_messages_batch, w.allreduces_seq,
        w.allreduces_batch, k + 1 < rows.size() ? "," : "");
    os << buf;
  }
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<Row>& evp_rows,
                const std::vector<ComposedRow>& composed) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"batch\",\n  \"solver\": \"pcsi+diagonal\",\n"
     << "  \"cases\": [\n";
  write_rows(os, rows);
  os << "  ],\n  \"evp_solver\": \"pcsi+block-evp\",\n"
     << "  \"evp_cases\": [\n";
  write_rows(os, evp_rows);
  os << "  ],\n  \"composed\": [\n";
  for (std::size_t k = 0; k < composed.size(); ++k) {
    const ComposedRow& w = composed[k];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nranks\": %d, \"batch\": %d, \"config\": "
        "\"pcsi+resilient\", "
        "\"fp64_seconds\": %.6e, \"composed_seconds\": %.6e, "
        "\"converged\": %s, \"max_residual\": %.3e, "
        "\"identity_ok\": %s, \"p2p_bytes_fp64\": %llu, "
        "\"p2p_bytes_composed\": %llu}%s\n",
        w.nranks, w.batch, w.fp64_seconds, w.composed_seconds,
        w.converged ? "true" : "false", w.max_residual,
        w.identity_ok ? "true" : "false",
        static_cast<unsigned long long>(w.p2p_bytes_fp64),
        static_cast<unsigned long long>(w.p2p_bytes_composed),
        k + 1 < composed.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] =
      bench::parse_bench_args(argc, argv, "BENCH_batch.json", true);

  bench::print_header(
      "batch", "batched multi-RHS P-CSI vs sequential scalar solves");

  const std::vector<int> batches =
      smoke ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8, 16};
  // The smoke job runs the 4-rank case only: its batch win (amortised
  // thread handshakes and barriers) has a ~2x margin over the > 1.0
  // assertion, where the serial win (per-call overheads, cache) can be
  // noise-level on a busy CI runner.
  const std::vector<int> rank_counts =
      smoke ? std::vector<int>{4} : std::vector<int>{1, 4};
  const int repeats = 3;

  const auto print_row = [](const Row& w) {
    std::printf("%6d %6d %12.3e %12.3e %9.2fx %9.1f %9.1f %9.1f %9s\n",
                w.nranks, w.batch, w.seq_seconds / w.batch,
                w.batch_seconds / w.batch, w.efficiency(),
                w.halo_exchanges_batch, w.p2p_messages_batch,
                w.allreduces_batch, w.identity_ok ? "ok" : "DIFFER");
  };
  const char* row_header = "%6s %6s %12s %12s %10s %9s %9s %9s %9s\n";
  std::vector<Row> rows;
  std::printf(row_header, "nranks", "B", "seq_s/sol", "bat_s/sol", "eff",
              "halo/sol", "msg/sol", "red/sol", "bits");
  for (const int nranks : rank_counts) {
    Case c(48, 40, 12, 10, nranks);
    for (const int batch : batches) {
      rows.push_back(run_case(c, pcsi_config(), nranks, batch, repeats));
      print_row(rows.back());
    }
  }

  // P-CSI + block-EVP on one rank: the EVP apply's lane choice follows
  // the batch width (DESIGN.md §10).
  const std::vector<int> evp_batches =
      smoke ? std::vector<int>{8} : std::vector<int>{1, 2, 4, 8, 16};
  std::vector<Row> evp_rows;
  std::printf("\npcsi+block-evp\n");
  std::printf(row_header, "nranks", "B", "seq_s/sol", "bat_s/sol", "eff",
              "halo/sol", "msg/sol", "red/sol", "bits");
  {
    Case c(48, 40, 12, 10, 1);
    for (const int batch : evp_batches) {
      evp_rows.push_back(run_case(
          c, pcsi_config(solver::PreconditionerKind::kBlockEvp), 1, batch,
          repeats));
      print_row(evp_rows.back());
    }
  }

  // Composed stack: resilience on the batched core, against the plain
  // fp64 batch of the same systems.
  const int composed_batch = smoke ? 4 : 8;
  std::vector<ComposedRow> composed;
  std::printf("\n%6s %6s %12s %12s %12s %12s %9s %7s %9s\n", "nranks", "B",
              "fp64_s", "composed_s", "bytes_fp64", "bytes_comp",
              "max_res", "bits", "conv");
  for (const int nranks : rank_counts) {
    Case c(48, 40, 12, 10, nranks);
    composed.push_back(run_composed(c, nranks, composed_batch, repeats));
    const ComposedRow& w = composed.back();
    std::printf("%6d %6d %12.3e %12.3e %12llu %12llu %9.1e %7s %9s\n",
                w.nranks, w.batch, w.fp64_seconds, w.composed_seconds,
                static_cast<unsigned long long>(w.p2p_bytes_fp64),
                static_cast<unsigned long long>(w.p2p_bytes_composed),
                w.max_residual, w.identity_ok ? "ok" : "DIFFER",
                w.converged ? "ok" : "DIVERGED");
  }

  write_json(json_path, rows, evp_rows, composed);
  std::printf("\nwrote %s\n", json_path.c_str());

  bool ok = true;
  for (const Row& w : rows) {
    if (!w.identity_ok) {
      std::printf("FAIL: batched members differ from scalar (nranks=%d "
                  "B=%d)\n",
                  w.nranks, w.batch);
      ok = false;
    }
    if (smoke && w.batch > 1 && w.efficiency() <= 1.0) {
      std::printf("FAIL: batch efficiency %.2f <= 1.0 (nranks=%d B=%d)\n",
                  w.efficiency(), w.nranks, w.batch);
      ok = false;
    }
  }
  for (const Row& w : evp_rows)
    if (!w.identity_ok) {
      std::printf("FAIL: batched block-EVP members differ from scalar "
                  "(nranks=%d B=%d)\n",
                  w.nranks, w.batch);
      ok = false;
    }
  for (const ComposedRow& w : composed) {
    if (!w.converged) {
      std::printf("FAIL: composed batched solve diverged (nranks=%d "
                  "B=%d, max_res=%.3e)\n",
                  w.nranks, w.batch, w.max_residual);
      ok = false;
    }
    if (!w.identity_ok) {
      std::printf("FAIL: composed batched members differ from the plain "
                  "fp64 batch (nranks=%d B=%d)\n",
                  w.nranks, w.batch);
      ok = false;
    }
    if (w.p2p_bytes_composed != w.p2p_bytes_fp64) {
      std::printf("FAIL: composed halo payload %llu B != fp64 %llu B "
                  "(nranks=%d B=%d)\n",
                  static_cast<unsigned long long>(w.p2p_bytes_composed),
                  static_cast<unsigned long long>(w.p2p_bytes_fp64),
                  w.nranks, w.batch);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
