// Integrity-layer tests (DESIGN.md §12): CRC32C known-answer vectors and
// incremental equivalence, the fault-site name table, the ABFT / drift
// verdict functions, guarded reductions, and the end-to-end properties
// the layer promises — free when off (bitwise-identical solves, zero
// integrity counters), transparent when on and healthy (bitwise-identical
// solves, nonzero check counters, zero failures), and typed detection of
// every injected silent-data-corruption fault. The SDC campaigns (halo
// bit flips behind the CRC, stencil coefficient flips, allreduce
// contribution corruption, recurrence drift) need the fault hooks
// compiled in and run only with -DMINIPOP_FAULTS=ON.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/fault/fault_injector.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/integrity.hpp"
#include "src/solver/lanczos.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mf = minipop::fault;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

// ---------------------------------------------------------------------
// Shared problem + solve harness (same idiom as test_resilience.cpp)
// ---------------------------------------------------------------------

struct Problem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

Problem make_problem(int nx, int ny, int block, int nranks,
                     std::uint64_t seed = 23) {
  Problem p;
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<mg::CurvilinearGrid>(spec);
  p.depth = mg::bowl_bathymetry(*p.grid, 4000.0);
  const double phi = mg::barotropic_phi(600.0);
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, phi);
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, /*periodic_x=*/false, p.stencil->mask(), block, block, nranks);
  mu::Xoshiro256 rng(seed);
  p.b_global = mu::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

std::vector<mu::Field> make_rhs(const Problem& p, int nb,
                                std::uint64_t seed0 = 900) {
  std::vector<mu::Field> out;
  for (int m = 0; m < nb; ++m) {
    mu::Xoshiro256 rng(seed0 + static_cast<std::uint64_t>(m));
    mu::Field b(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
    for (int j = 0; j < b.ny(); ++j)
      for (int i = 0; i < b.nx(); ++i)
        if (p.stencil->mask()(i, j)) b(i, j) = rng.uniform(-1, 1);
    out.push_back(std::move(b));
  }
  return out;
}

void expect_fields_bitwise(const mu::Field& a, const mu::Field& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
}

#if MINIPOP_FAULTS
void expect_fields_near(const mu::Field& a, const mu::Field& ref,
                        double rel) {
  ASSERT_EQ(a.nx(), ref.nx());
  ASSERT_EQ(a.ny(), ref.ny());
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  for (int j = 0; j < a.ny(); ++j)
    for (int i = 0; i < a.nx(); ++i)
      ASSERT_NEAR(a(i, j), ref(i, j), rel * scale)
          << "at (" << i << ", " << j << ")";
}
#endif  // MINIPOP_FAULTS

void expect_stats_bitwise(const ms::SolveStats& a, const ms::SolveStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.relative_residual, b.relative_residual);
  // Callers record residuals: empty histories would compare vacuously.
  ASSERT_FALSE(b.residual_history.empty());
  ASSERT_EQ(a.residual_history.size(), b.residual_history.size());
  for (std::size_t k = 0; k < a.residual_history.size(); ++k) {
    EXPECT_EQ(a.residual_history[k].first, b.residual_history[k].first);
    EXPECT_EQ(a.residual_history[k].second, b.residual_history[k].second);
  }
}

ms::EigenBounds lanczos_bounds_serial(const Problem& p) {
  mg::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                       p.stencil->periodic_x(), p.stencil->mask(),
                       p.stencil->nx(), p.stencil->ny(), 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(d1);
  ms::DistOperator a(*p.stencil, d1, 0);
  ms::DiagonalPreconditioner m(a);
  ms::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  return ms::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
}

using SolverFactory =
    std::function<std::unique_ptr<ms::BatchedSolver>(int rank)>;

struct SolveRun {
  mu::Field x;
  ms::SolveStats stats;
  std::vector<ms::RecoveryEvent> events;
};

SolveRun run_with(const Problem& p, int nranks, const SolverFactory& make,
                  const mu::Field* b_override = nullptr,
                  double recv_timeout_ms = 0.0, bool halo_crc = false) {
  SolveRun out;
  out.x = mu::Field(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  std::vector<ms::SolveStats> stats(nranks);
  mc::HaloExchanger halo(*p.decomp);
  halo.set_crc(halo_crc);
  const mu::Field& bg = b_override ? *b_override : p.b_global;
  auto body = [&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    ms::DiagonalPreconditioner m(a);
    std::unique_ptr<ms::BatchedSolver> s = make(comm.rank());
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(bg);
    stats[comm.rank()] = ms::solve_one(*s, comm, halo, a, m, b, x);
    x.store_global(out.x);  // disjoint interiors; no race
    if (comm.rank() == 0)
      if (auto* rs = dynamic_cast<ms::BatchedResilientSolver*>(s.get()))
        out.events = rs->events();
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    if (recv_timeout_ms > 0.0) team.set_recv_timeout(recv_timeout_ms);
    team.run(body);
  }
  out.stats = stats[0];
  return out;
}

/// Single-solve stack: a pcsi|cg|pcg core, run as a width-1 batch by
/// run_with.
SolverFactory make_kind(const std::string& kind, const ms::SolverOptions& opt,
                        ms::EigenBounds bounds = {1.0, 2.0}) {
  return [kind, opt, bounds](int) -> std::unique_ptr<ms::BatchedSolver> {
    if (kind == "cg") return std::make_unique<ms::BatchedChronGearSolver>(opt);
    if (kind == "pcg") return std::make_unique<ms::BatchedPcgSolver>(opt);
    return std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
  };
}

#if MINIPOP_FAULTS
SolverFactory resilient(const SolverFactory& inner,
                        ms::RecoveryPolicy pol = {}) {
  return [inner, pol](int r) -> std::unique_ptr<ms::BatchedSolver> {
    return std::make_unique<ms::BatchedResilientSolver>(inner(r), pol);
  };
}
#endif  // MINIPOP_FAULTS

// ---------------------------------------------------------------------
// Batched solve harness
// ---------------------------------------------------------------------

using BatchedFactory = std::function<std::unique_ptr<ms::BatchedSolver>()>;

BatchedFactory make_batched(const std::string& kind,
                            const ms::SolverOptions& opt,
                            ms::EigenBounds bounds) {
  return [kind, opt, bounds]() -> std::unique_ptr<ms::BatchedSolver> {
    if (kind == "pcsi")
      return std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
    if (kind == "pcg") return std::make_unique<ms::BatchedPcgSolver>(opt);
    return std::make_unique<ms::BatchedChronGearSolver>(opt);
  };
}

#if MINIPOP_FAULTS
BatchedFactory resilient_batched(const BatchedFactory& inner) {
  return [inner]() -> std::unique_ptr<ms::BatchedSolver> {
    return std::make_unique<ms::BatchedResilientSolver>(inner());
  };
}
#endif  // MINIPOP_FAULTS

struct BatchRun {
  std::vector<mu::Field> x;  ///< gathered solution per member
  ms::BatchSolveStats stats;
  std::vector<ms::RecoveryEvent> events;
};

BatchRun run_batch(const Problem& p, int nranks,
                   const std::vector<mu::Field>& rhs,
                   const BatchedFactory& make, double recv_timeout_ms = 0.0,
                   bool halo_crc = false) {
  const int nb = static_cast<int>(rhs.size());
  BatchRun out;
  out.x.assign(static_cast<std::size_t>(nb),
               mu::Field(p.decomp->nx_global(), p.decomp->ny_global(), 0.0));
  std::vector<ms::BatchSolveStats> stats(nranks);
  mc::HaloExchanger halo(*p.decomp);
  halo.set_crc(halo_crc);
  auto body = [&](mc::Communicator& comm) {
    const int r = comm.rank();
    ms::DistOperator a(*p.stencil, *p.decomp, r);
    ms::DiagonalPreconditioner m(a);
    std::unique_ptr<ms::BatchedSolver> s = make();
    mc::DistFieldBatch b(*p.decomp, r, nb), x(*p.decomp, r, nb);
    for (int mm = 0; mm < nb; ++mm) {
      mc::DistField plane(*p.decomp, r);
      plane.load_global(rhs[static_cast<std::size_t>(mm)]);
      b.load_member(mm, plane);
    }
    stats[r] = s->solve(comm, halo, a, m, b, x);
    for (int mm = 0; mm < nb; ++mm) {
      mc::DistField plane(*p.decomp, r);
      x.store_member(mm, plane);
      plane.store_global(out.x[static_cast<std::size_t>(mm)]);
    }
    if (r == 0)
      if (auto* rs = dynamic_cast<ms::BatchedResilientSolver*>(s.get()))
        out.events = rs->events();
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    if (recv_timeout_ms > 0.0) team.set_recv_timeout(recv_timeout_ms);
    team.run(body);
  }
  out.stats = stats[0];
  return out;
}

/// IntegrityOptions with every solver-side check on, at a short cadence.
ms::SolverOptions with_integrity(ms::SolverOptions opt) {
  opt.integrity.guarded_reductions = true;
  opt.integrity.abft_interval = 2;
  opt.integrity.true_residual_interval = 2;
  return opt;
}

}  // namespace

// ---------------------------------------------------------------------
// CRC32C: RFC 3720 / iSCSI known-answer vectors + incremental API
// ---------------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // The iSCSI test vectors (RFC 3720 B.4, as 32-bit values).
  EXPECT_EQ(mu::crc32c("123456789", 9), 0xE3069283u);
  unsigned char buf[32];
  std::fill(std::begin(buf), std::end(buf), static_cast<unsigned char>(0));
  EXPECT_EQ(mu::crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  std::fill(std::begin(buf), std::end(buf), static_cast<unsigned char>(0xFF));
  EXPECT_EQ(mu::crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(mu::crc32c(buf, sizeof(buf)), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<unsigned char>(31 - i);
  EXPECT_EQ(mu::crc32c(buf, sizeof(buf)), 0x113FDB5Cu);
}

TEST(Crc32c, IncrementalEqualsOneShot) {
  std::vector<unsigned char> data(73);
  mu::Xoshiro256 rng(7);
  for (auto& b : data)
    b = static_cast<unsigned char>(rng.uniform(0.0, 256.0));
  const std::uint32_t want = mu::crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t st = mu::kCrc32cInit;
    st = mu::crc32c_update(st, data.data(), split);
    st = mu::crc32c_update(st, data.data() + split, data.size() - split);
    EXPECT_EQ(mu::crc32c_final(st), want) << "split at " << split;
  }
  // Empty input is the identity of the accumulator.
  EXPECT_EQ(mu::crc32c_update(mu::kCrc32cInit, data.data(), 0),
            mu::kCrc32cInit);
}

TEST(Crc32c, AnySingleBitFlipChangesTheChecksum) {
  // CRC32C detects all single-bit errors; spot-check a payload-sized
  // buffer the way the halo layer uses it (doubles viewed as bytes).
  std::vector<double> payload = {1.0, -2.5, 3.75e10, 0.0, -0.0, 5e-300};
  const std::size_t nbytes = payload.size() * sizeof(double);
  const std::uint32_t clean = mu::crc32c(payload.data(), nbytes);
  auto* bytes = reinterpret_cast<unsigned char*>(payload.data());
  for (std::size_t bit = 0; bit < 8 * nbytes; bit += 13) {
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(mu::crc32c(payload.data(), nbytes), clean) << "bit " << bit;
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(mu::crc32c(payload.data(), nbytes), clean);
}

// ---------------------------------------------------------------------
// Fault-site table and failure-kind vocabulary stay in sync
// ---------------------------------------------------------------------

TEST(FaultSites, NameTableCoversTheIntegritySites) {
  // kNumFaultSites is derived from the name table and static_asserted
  // against the last enumerator; this pins the published names.
  EXPECT_EQ(mf::kNumFaultSites, 8);
  EXPECT_STREQ(mf::to_string(mf::FaultSite::kHaloBitFlip), "halo_bit_flip");
  EXPECT_STREQ(mf::to_string(mf::FaultSite::kCoeffBitFlip),
               "coeff_bit_flip");
  EXPECT_STREQ(mf::to_string(mf::FaultSite::kReductionCorrupt),
               "reduction_corrupt");
}

TEST(FailureKinds, ToStringCoversTheIntegrityKinds) {
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kSilentDrift), "silent_drift");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kCorruptReduction),
               "corrupt_reduction");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kCorruptOperator),
               "corrupt_operator");
  EXPECT_STREQ(ms::to_string(ms::FailureKind::kCorruptPayload),
               "corrupt_payload");
  // Severity ordering the recovery agreement relies on: only the
  // communication-state failures demand a resync fence.
  EXPECT_FALSE(ms::needs_resync(ms::FailureKind::kSilentDrift));
  EXPECT_FALSE(ms::needs_resync(ms::FailureKind::kCorruptReduction));
  EXPECT_FALSE(ms::needs_resync(ms::FailureKind::kCorruptOperator));
  EXPECT_TRUE(ms::needs_resync(ms::FailureKind::kCommTimeout));
  EXPECT_TRUE(ms::needs_resync(ms::FailureKind::kCorruptPayload));
}

// ---------------------------------------------------------------------
// Verdict functions
// ---------------------------------------------------------------------

TEST(IntegrityVerdicts, AbftMismatchScalesWithProblemAndRejectsNan) {
  ms::IntegrityOptions integ;
  integ.abft_tolerance = 1e-8;
  // Healthy identity: (sum_b - sum_r) == dot_cx exactly.
  EXPECT_FALSE(ms::abft_mismatch(integ, 10.0, 4.0, 6.0, 1000.0, 25.0));
  // A rounding-scale gap stays under tolerance * (sqrt(N b²) + |dot|).
  EXPECT_FALSE(
      ms::abft_mismatch(integ, 10.0, 4.0, 6.0 + 1e-12, 1000.0, 25.0));
  // A gap far above the scale is a mismatch.
  EXPECT_TRUE(ms::abft_mismatch(integ, 10.0, 4.0, 60.0, 1000.0, 25.0));
  // Non-finite sums (flipped exponent bits breeding inf/NaN) always trip.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ms::abft_mismatch(integ, nan, 4.0, 6.0, 1000.0, 25.0));
  EXPECT_TRUE(ms::abft_mismatch(integ, 10.0, inf, 6.0, 1000.0, 25.0));
}

TEST(IntegrityVerdicts, DriftMismatchComparesRelativeResiduals) {
  ms::IntegrityOptions integ;
  integ.drift_tolerance = 1e-8;
  EXPECT_FALSE(ms::drift_mismatch(integ, 1e-10, 1e-10));
  EXPECT_FALSE(ms::drift_mismatch(integ, 1e-10 + 1e-20, 1e-10));
  // Recurrence claims convergence, true residual says otherwise.
  EXPECT_TRUE(ms::drift_mismatch(integ, 1e-3, 1e-10));
  EXPECT_TRUE(
      ms::drift_mismatch(integ, std::numeric_limits<double>::quiet_NaN(),
                         1e-10));
}

// ---------------------------------------------------------------------
// Guarded reductions
// ---------------------------------------------------------------------

TEST(GuardedReductionTest, OffIsAPlainReductionWithZeroCounters) {
  mc::SerialComm comm;
  ms::IntegrityOptions integ;  // guard off
  double v[2] = {1.5, -2.0};
  EXPECT_FALSE(
      ms::allreduce_sum_guarded(comm, integ, std::span<double>(v, 2)));
  EXPECT_EQ(v[0], 1.5);
  EXPECT_EQ(v[1], -2.0);
  EXPECT_EQ(comm.costs().counters().integrity_checks, 0u);
}

TEST(GuardedReductionTest, HealthySerialGuardPassesAndCounts) {
  mc::SerialComm comm;
  ms::IntegrityOptions integ;
  integ.guarded_reductions = true;
  double v[3] = {1.5, 0.0, -7.25};
  EXPECT_FALSE(
      ms::allreduce_sum_guarded(comm, integ, std::span<double>(v, 3)));
  EXPECT_EQ(v[0], 1.5);
  EXPECT_EQ(v[1], 0.0);
  EXPECT_EQ(v[2], -7.25);
  EXPECT_EQ(comm.costs().counters().integrity_checks, 1u);
  EXPECT_EQ(comm.costs().counters().integrity_failures, 0u);
}

TEST(GuardedReductionTest, GuardedSumBitwiseEqualsUnguardedAcrossRanks) {
  const int nranks = 4;
  std::vector<double> guarded(2, 0.0), plain(2, 0.0);
  std::vector<int> mismatched(nranks, 0);
  mc::ThreadTeam team(nranks);
  team.run([&](mc::Communicator& comm) {
    // Rank-dependent, rounding-sensitive contributions.
    double a[2] = {0.1 * (comm.rank() + 1), -1.0 / (comm.rank() + 3)};
    double b[2] = {a[0], a[1]};
    ms::IntegrityOptions on;
    on.guarded_reductions = true;
    mismatched[comm.rank()] =
        ms::allreduce_sum_guarded(comm, on, std::span<double>(a, 2)) ? 1 : 0;
    comm.allreduce(std::span<double>(b, 2), mc::ReduceOp::kSum);
    if (comm.rank() == 0) {
      guarded.assign(a, a + 2);
      plain.assign(b, b + 2);
    }
  });
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(mismatched[r], 0);
  // The duplicated halves combine in the same fixed rank order, so the
  // guarded result is bitwise the plain one.
  EXPECT_EQ(guarded[0], plain[0]);
  EXPECT_EQ(guarded[1], plain[1]);
}

// ---------------------------------------------------------------------
// Free when off / transparent when on (clean solves)
// ---------------------------------------------------------------------

TEST(IntegrityOff, DefaultOptionsRecordZeroIntegrityCounters) {
  Problem p = make_problem(24, 20, 8, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  for (const std::string& kind : {std::string("cg"), std::string("pcsi"),
                                  std::string("pcg")}) {
    SCOPED_TRACE(kind);
    SolveRun r = run_with(p, 1, make_kind(kind, opt));
    ASSERT_TRUE(r.stats.converged);
    EXPECT_EQ(r.stats.costs.integrity_checks, 0u);
    EXPECT_EQ(r.stats.costs.integrity_failures, 0u);
  }
}

TEST(IntegrityOn, CleanScalarSolveIsBitwiseIdenticalAndCounted) {
  ms::SolverOptions off;
  off.rel_tolerance = 1e-10;
  off.record_residuals = true;
  const ms::SolverOptions on = with_integrity(off);
  for (const std::string& kind : {std::string("cg"), std::string("pcsi"),
                                  std::string("pcg")}) {
    for (const int nranks : {1, 4}) {
      SCOPED_TRACE(kind + " nranks=" + std::to_string(nranks));
      Problem p = make_problem(32, 24, 8, nranks);
      const ms::EigenBounds bounds = lanczos_bounds_serial(p);
      SolveRun base = run_with(p, nranks, make_kind(kind, off, bounds));
      SolveRun audited = run_with(p, nranks, make_kind(kind, on, bounds));
      ASSERT_TRUE(base.stats.converged);
      ASSERT_TRUE(audited.stats.converged);
      expect_stats_bitwise(audited.stats, base.stats);
      expect_fields_bitwise(audited.x, base.x);
      EXPECT_GT(audited.stats.costs.integrity_checks, 0u);
      EXPECT_EQ(audited.stats.costs.integrity_failures, 0u);
      EXPECT_EQ(base.stats.costs.integrity_checks, 0u);
    }
  }
}

TEST(IntegrityOn, HaloCrcCleanExchangesAreBitwiseIdenticalAndCounted) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.record_residuals = true;
  SolveRun off = run_with(p, 4, make_kind("cg", opt));
  SolveRun on = run_with(p, 4, make_kind("cg", opt), nullptr, 0.0,
                         /*halo_crc=*/true);
  ASSERT_TRUE(off.stats.converged);
  ASSERT_TRUE(on.stats.converged);
  expect_stats_bitwise(on.stats, off.stats);
  expect_fields_bitwise(on.x, off.x);
  // Every received remote payload was CRC-verified, none failed.
  EXPECT_GT(on.stats.costs.integrity_checks, 0u);
  EXPECT_EQ(on.stats.costs.integrity_failures, 0u);
  EXPECT_EQ(off.stats.costs.integrity_checks, 0u);
}

TEST(IntegrityOn, CleanBatchedSolveIsBitwiseIdenticalAndCounted) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  const std::vector<mu::Field> rhs = make_rhs(p, 4);
  ms::SolverOptions off;
  off.rel_tolerance = 1e-10;
  const ms::SolverOptions on = with_integrity(off);
  for (const std::string& kind : {std::string("pcsi"), std::string("cg"),
                                  std::string("pcg")}) {
    SCOPED_TRACE(kind);
    BatchRun base = run_batch(p, 1, rhs, make_batched(kind, off, bounds));
    BatchRun audited = run_batch(p, 1, rhs, make_batched(kind, on, bounds));
    ASSERT_EQ(base.stats.members.size(), rhs.size());
    ASSERT_EQ(audited.stats.members.size(), rhs.size());
    for (std::size_t m = 0; m < rhs.size(); ++m) {
      ASSERT_TRUE(base.stats.members[m].converged) << "member " << m;
      EXPECT_TRUE(audited.stats.members[m].converged) << "member " << m;
      EXPECT_EQ(audited.stats.members[m].iterations,
                base.stats.members[m].iterations)
          << "member " << m;
      EXPECT_EQ(audited.stats.members[m].relative_residual,
                base.stats.members[m].relative_residual)
          << "member " << m;
      expect_fields_bitwise(audited.x[m], base.x[m]);
    }
    EXPECT_GT(audited.stats.costs.integrity_checks, 0u);
    EXPECT_EQ(audited.stats.costs.integrity_failures, 0u);
    EXPECT_EQ(base.stats.costs.integrity_checks, 0u);
  }
}

// ---------------------------------------------------------------------
// SDC campaigns: every injected fault detected, typed, recoverable
// (need the fault hooks compiled in)
// ---------------------------------------------------------------------
#if MINIPOP_FAULTS

namespace {

mf::FaultPlan one_rule(mf::FaultSite site, long trigger, int bit = 51,
                       int rank = -1) {
  mf::FaultRule r;
  r.site = site;
  r.rank = rank;
  r.trigger_event = trigger;
  r.bit = bit;
  mf::FaultPlan plan;
  plan.add(r);
  return plan;
}

/// No member may report convergence with a wrong answer: converged
/// members must match the fault-free reference.
void expect_no_silent_wrong_batch(const BatchRun& run, const BatchRun& clean,
                                  double rel = 1e-6) {
  ASSERT_EQ(run.stats.members.size(), clean.stats.members.size());
  for (std::size_t m = 0; m < run.stats.members.size(); ++m) {
    if (run.stats.members[m].converged)
      expect_fields_near(run.x[m], clean.x[m], rel);
  }
}

int count_member_failures(const ms::BatchSolveStats& stats,
                          ms::FailureKind kind) {
  int n = 0;
  for (const auto& m : stats.members)
    if (!m.converged && m.failure == kind) ++n;
  return n;
}

}  // namespace

TEST(GuardedReductionTest, InjectedContributionCorruptionIsDetected) {
  mc::SerialComm comm;
  ms::IntegrityOptions on;
  on.guarded_reductions = true;
  mf::FaultScope scope(one_rule(mf::FaultSite::kReductionCorrupt, 0));
  double v[3] = {1.0, 2.0, 3.0};
  std::vector<int> bad;
  EXPECT_TRUE(
      ms::allreduce_sum_guarded(comm, on, std::span<double>(v, 3), &bad));
  EXPECT_EQ(scope.injector().fire_count(), 1);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_GE(bad[0], 0);
  EXPECT_LT(bad[0], 3);
  EXPECT_EQ(comm.costs().counters().integrity_failures, 1u);
}

TEST(SdcCampaign, ReductionCorruptTypedAcrossScalarConfigs) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  for (const std::string& kind : {std::string("cg"), std::string("pcsi"),
                                  std::string("pcg")}) {
    SCOPED_TRACE(kind);
    ms::SolverOptions opt;
    opt.rel_tolerance = 1e-10;
    opt.integrity.guarded_reductions = true;
    mf::FaultScope scope(one_rule(mf::FaultSite::kReductionCorrupt, 0));
    SolveRun run = run_with(p, 1, make_kind(kind, opt, bounds));
    EXPECT_EQ(scope.injector().fire_count(), 1);
    EXPECT_FALSE(run.stats.converged);
    EXPECT_EQ(run.stats.failure, ms::FailureKind::kCorruptReduction);
    EXPECT_GE(run.stats.costs.integrity_failures, 1u);
  }
}

TEST(SdcCampaign, CoeffBitFlipTypedAcrossScalarConfigs) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  for (const std::string& kind : {std::string("cg"), std::string("pcsi"),
                                  std::string("pcg")}) {
    SCOPED_TRACE(kind);
    ms::SolverOptions opt;
    opt.rel_tolerance = 1e-10;
    opt.integrity.abft_interval = 1;
    // Exponent-bit flip of one stored stencil coefficient: the next
    // ABFT audit sees a checksum gap orders of magnitude above the
    // tolerance scale. Event ordinals count operator sweeps.
    mf::FaultScope scope(one_rule(mf::FaultSite::kCoeffBitFlip, 2, 62));
    SolveRun run = run_with(p, 1, make_kind(kind, opt, bounds));
    EXPECT_EQ(scope.injector().fire_count(), 1);
    EXPECT_FALSE(run.stats.converged);
    EXPECT_EQ(run.stats.failure, ms::FailureKind::kCorruptOperator);
    EXPECT_GE(run.stats.costs.integrity_failures, 1u);
  }
}

TEST(SdcCampaign, RecurrenceDriftFromCorruptVectorTypedAndRecovered) {
  Problem p = make_problem(32, 24, 8, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.integrity.true_residual_interval = 1;
  SolveRun clean = run_with(p, 1, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  // A finite mid-mantissa flip in a solver vector desynchronizes
  // ChronGear's recurrence residual from b - Ax without tripping the
  // NaN/divergence guards — the canonical SILENT corruption. The
  // persistent recurrence-vs-true gap must be caught by the drift
  // audit, at the accepting check at the latest.
  mf::FaultRule r;
  r.site = mf::FaultSite::kSolverVector;
  r.trigger_event = 6;
  r.bit = 40;
  mf::FaultPlan plan;
  plan.add(r);
  {
    mf::FaultScope scope(plan);
    SolveRun raw = run_with(p, 1, make_kind("cg", opt));
    EXPECT_EQ(scope.injector().fire_count(), 1);
    EXPECT_FALSE(raw.stats.converged);
    EXPECT_EQ(raw.stats.failure, ms::FailureKind::kSilentDrift);
    EXPECT_GE(raw.stats.costs.integrity_failures, 1u);
  }
  {
    // Decorated: restart from the entry checkpoint replays the
    // fault-free solve exactly (the rule is spent after one fire).
    mf::FaultScope scope(plan);
    SolveRun dec = run_with(p, 1, resilient(make_kind("cg", opt)));
    EXPECT_EQ(scope.injector().fire_count(), 1);
    EXPECT_TRUE(dec.stats.converged);
    ASSERT_GE(dec.events.size(), 1u);
    EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kSilentDrift);
    EXPECT_EQ(dec.events[0].action, "restart");
    expect_fields_bitwise(dec.x, clean.x);
  }
}

TEST(SdcCampaign, ReductionCorruptTypedAcrossBatchedConfigs) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  for (const std::string& kind : {std::string("pcsi"), std::string("cg"),
                                  std::string("pcg")}) {
    for (const int nb : {1, 4}) {
      SCOPED_TRACE(kind + " B=" + std::to_string(nb));
      const std::vector<mu::Field> rhs = make_rhs(p, nb);
      ms::SolverOptions opt;
      opt.rel_tolerance = 1e-10;
      opt.integrity.guarded_reductions = true;
      BatchRun clean =
          run_batch(p, 1, rhs, make_batched(kind, opt, bounds));
      for (const auto& m : clean.stats.members)
        ASSERT_TRUE(m.converged);
      // Event 0 is the guarded ||b||² setup reduce: the corrupted
      // slot's member must be frozen kCorruptReduction at entry.
      mf::FaultScope scope(one_rule(mf::FaultSite::kReductionCorrupt, 0));
      BatchRun run =
          run_batch(p, 1, rhs, make_batched(kind, opt, bounds));
      EXPECT_EQ(scope.injector().fire_count(), 1);
      EXPECT_GE(count_member_failures(run.stats,
                                      ms::FailureKind::kCorruptReduction),
                1);
      expect_no_silent_wrong_batch(run, clean);
      EXPECT_GE(run.stats.costs.integrity_failures, 1u);
    }
  }
}

TEST(SdcCampaign, CoeffBitFlipTypedAcrossBatchedConfigs) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  for (const std::string& kind : {std::string("pcsi"), std::string("cg"),
                                  std::string("pcg")}) {
    for (const int nb : {1, 4}) {
      SCOPED_TRACE(kind + " B=" + std::to_string(nb));
      const std::vector<mu::Field> rhs = make_rhs(p, nb);
      ms::SolverOptions opt;
      opt.rel_tolerance = 1e-10;
      opt.integrity.abft_interval = 1;
      BatchRun clean =
          run_batch(p, 1, rhs, make_batched(kind, opt, bounds));
      for (const auto& m : clean.stats.members)
        ASSERT_TRUE(m.converged);
      mf::FaultScope scope(one_rule(mf::FaultSite::kCoeffBitFlip, 2, 62));
      BatchRun run =
          run_batch(p, 1, rhs, make_batched(kind, opt, bounds));
      EXPECT_EQ(scope.injector().fire_count(), 1);
      // The operator is shared: every still-active member fails the
      // ABFT identity at the first audit after the flip.
      EXPECT_GE(count_member_failures(run.stats,
                                      ms::FailureKind::kCorruptOperator),
                1);
      expect_no_silent_wrong_batch(run, clean);
      EXPECT_GE(run.stats.costs.integrity_failures, 1u);
    }
  }
}

// The solver-vector site arms on width-1 working batches only, for
// every core: a member of a wider batch recovers through the resilient
// decorator's per-member sub-batches instead.
TEST(SdcCampaign, SolverVectorSiteArmsOnWidthOneBatchesOnly) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  // No retirement: a batch compacted down to one survivor is width 1.
  opt.batch_retire_fraction = 0.0;
  for (const std::string& kind : {std::string("pcsi"), std::string("cg"),
                                  std::string("pcg")}) {
    for (const int nb : {1, 4}) {
      SCOPED_TRACE(kind + " B=" + std::to_string(nb));
      mf::FaultScope scope{mf::FaultPlan{}};  // counts offers, fires none
      BatchRun run =
          run_batch(p, 1, make_rhs(p, nb), make_batched(kind, opt, bounds));
      for (const auto& m : run.stats.members) EXPECT_TRUE(m.converged);
      const long offered =
          scope.injector().events(mf::FaultSite::kSolverVector, 0);
      if (nb == 1)
        EXPECT_GT(offered, 0);
      else
        EXPECT_EQ(offered, 0);
    }
  }
}

// Width 1 is the working batch, not the batch the caller handed in:
// once retirement compacts a wider batch down to one survivor, that
// survivor's sweeps write a scalar plane and the site arms on them.
TEST(SdcCampaign, SolverVectorSiteArmsOnceABatchCompactsToOneSurvivor) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  ms::SolverOptions opt;  // default batch_retire_fraction
  opt.rel_tolerance = 1e-10;
  mf::FaultScope scope{mf::FaultPlan{}};  // counts offers, fires none
  BatchRun run =
      run_batch(p, 1, make_rhs(p, 4), make_batched("pcsi", opt, bounds));
  for (const auto& m : run.stats.members) EXPECT_TRUE(m.converged);
  EXPECT_GE(run.stats.retirements, 1);
  EXPECT_GT(scope.injector().events(mf::FaultSite::kSolverVector, 0), 0);
}

TEST(SdcCampaign, HaloBitFlipBehindCrcRecoveredAcrossBatchedConfigs) {
  Problem p = make_problem(32, 24, 8, 4);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  for (const std::string& kind : {std::string("pcsi"), std::string("cg"),
                                  std::string("pcg")}) {
    for (const int nb : {1, 4}) {
      SCOPED_TRACE(kind + " B=" + std::to_string(nb));
      const std::vector<mu::Field> rhs = make_rhs(p, nb);
      ms::SolverOptions opt;
      opt.rel_tolerance = 1e-10;
      BatchRun clean = run_batch(p, 4, rhs,
                                 make_batched(kind, opt, bounds),
                                 0.0, /*halo_crc=*/true);
      for (const auto& m : clean.stats.members)
        ASSERT_TRUE(m.converged);
      // Low mantissa bit of a wire payload, flipped AFTER the CRC was
      // computed: numerically negligible, invisible to every residual
      // check — only the CRC can see it. Detection raises
      // CorruptPayloadError; the resilient decorator resyncs the team
      // and restarts from the entry checkpoint.
      mf::FaultScope scope(
          one_rule(mf::FaultSite::kHaloBitFlip, 4, 0, /*rank=*/1));
      BatchRun run = run_batch(p, 4, rhs,
                               resilient_batched(
                                   make_batched(kind, opt, bounds)),
                               0.0, /*halo_crc=*/true);
      EXPECT_EQ(scope.injector().fire_count(), 1);
      ASSERT_GE(run.events.size(), 1u);
      EXPECT_EQ(run.events[0].failure, ms::FailureKind::kCorruptPayload);
      ASSERT_EQ(run.stats.members.size(), rhs.size());
      for (std::size_t m = 0; m < rhs.size(); ++m) {
        EXPECT_TRUE(run.stats.members[m].converged) << "member " << m;
        expect_fields_bitwise(run.x[m], clean.x[m]);
      }
    }
  }
}

TEST(SdcRecovery, CorruptOperatorRepairedThenReplaysCleanSolve) {
  Problem p = make_problem(32, 24, 8, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.integrity.abft_interval = 1;
  SolveRun clean = run_with(p, 1, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  mf::FaultScope scope(one_rule(mf::FaultSite::kCoeffBitFlip, 2, 62));
  SolveRun dec = run_with(p, 1, resilient(make_kind("cg", opt)));
  EXPECT_EQ(scope.injector().fire_count(), 1);
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_GE(dec.events.size(), 1u);
  // The corruption is persistent state, so restart alone cannot cure
  // it: the first recovery rung re-copies the coefficient planes from
  // the pristine stencil and rebuilds the ABFT column sums.
  EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kCorruptOperator);
  EXPECT_EQ(dec.events[0].action, "repair_operator");
  expect_fields_bitwise(dec.x, clean.x);
}

TEST(SdcRecovery, BatchedCorruptOperatorRepairedThenReplaysCleanSolve) {
  Problem p = make_problem(32, 24, 8, 1);
  const ms::EigenBounds bounds = lanczos_bounds_serial(p);
  const std::vector<mu::Field> rhs = make_rhs(p, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.integrity.abft_interval = 1;
  BatchRun clean = run_batch(p, 1, rhs, make_batched("cg", opt, bounds));
  for (const auto& m : clean.stats.members) ASSERT_TRUE(m.converged);

  mf::FaultScope scope(one_rule(mf::FaultSite::kCoeffBitFlip, 2, 62));
  BatchRun dec =
      run_batch(p, 1, rhs, resilient_batched(make_batched("cg", opt, bounds)));
  EXPECT_EQ(scope.injector().fire_count(), 1);
  ASSERT_GE(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kCorruptOperator);
  EXPECT_EQ(dec.events[0].action, "repair_operator");
  for (std::size_t m = 0; m < rhs.size(); ++m) {
    EXPECT_TRUE(dec.stats.members[m].converged) << "member " << m;
    expect_fields_bitwise(dec.x[m], clean.x[m]);
  }
}

TEST(SdcRecovery, CorruptReductionRestartedThenReplaysCleanSolve) {
  Problem p = make_problem(32, 24, 8, 1);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.integrity.guarded_reductions = true;
  SolveRun clean = run_with(p, 1, make_kind("cg", opt));
  ASSERT_TRUE(clean.stats.converged);

  mf::FaultScope scope(one_rule(mf::FaultSite::kReductionCorrupt, 3));
  SolveRun dec = run_with(p, 1, resilient(make_kind("cg", opt)));
  EXPECT_EQ(scope.injector().fire_count(), 1);
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_GE(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kCorruptReduction);
  EXPECT_EQ(dec.events[0].action, "restart");
  expect_fields_bitwise(dec.x, clean.x);
}

TEST(SdcRecovery, ScalarHaloBitFlipBehindCrcRecovered) {
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  SolveRun clean =
      run_with(p, 4, make_kind("cg", opt), nullptr, 0.0, /*halo_crc=*/true);
  ASSERT_TRUE(clean.stats.converged);

  const mf::FaultPlan plan =
      one_rule(mf::FaultSite::kHaloBitFlip, 5, 0, /*rank=*/1);
  mf::FaultScope scope(plan);
  SolveRun dec = run_with(p, 4, resilient(make_kind("cg", opt)), nullptr,
                          0.0, /*halo_crc=*/true);
  EXPECT_EQ(scope.injector().fire_count(), 1);
  EXPECT_TRUE(dec.stats.converged);
  ASSERT_GE(dec.events.size(), 1u);
  EXPECT_EQ(dec.events[0].failure, ms::FailureKind::kCorruptPayload);
  expect_fields_bitwise(dec.x, clean.x);
}

TEST(SdcCampaign, HaloBitFlipSiteOnlyArmsOnCrcProtectedSends) {
  // Without the CRC trailer there is no wire checksum to model
  // corruption against: the site never fires, documenting that
  // kHaloBitFlip measures the CRC's detection coverage specifically
  // (kHaloPayload covers pre-CRC memory corruption).
  Problem p = make_problem(32, 24, 8, 4);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  mf::FaultScope scope(
      one_rule(mf::FaultSite::kHaloBitFlip, 0, 0, /*rank=*/1));
  SolveRun run = run_with(p, 4, make_kind("cg", opt));  // crc off
  EXPECT_TRUE(run.stats.converged);
  EXPECT_EQ(scope.injector().fire_count(), 0);
}

#endif  // MINIPOP_FAULTS
