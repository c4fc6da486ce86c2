#include "src/solver/solver_factory.hpp"

#include <algorithm>

#include "src/perf/cost_equations.hpp"
#include "src/solver/pcg.hpp"
#include "src/solver/pipelined_cg.hpp"
#include "src/util/error.hpp"
#include "src/util/log.hpp"

namespace minipop::solver {

SolverKind solver_kind_from_string(const std::string& s) {
  if (s == "pcg") return SolverKind::kPcg;
  if (s == "chrongear" || s == "cg") return SolverKind::kChronGear;
  if (s == "pcsi" || s == "csi") return SolverKind::kPcsi;
  if (s == "pipecg" || s == "pipelined") return SolverKind::kPipelinedCg;
  throw util::Error("unknown solver '" + s + "' (pcg|chrongear|pcsi|pipecg)");
}

PreconditionerKind preconditioner_kind_from_string(const std::string& s) {
  if (s == "identity" || s == "none") return PreconditionerKind::kIdentity;
  if (s == "diagonal" || s == "diag") return PreconditionerKind::kDiagonal;
  if (s == "evp" || s == "block-evp")
    return PreconditionerKind::kBlockEvp;
  throw util::Error("unknown preconditioner '" + s +
                    "' (identity|diagonal|evp)");
}

std::string to_string(SolverKind k) {
  switch (k) {
    case SolverKind::kPcg: return "pcg";
    case SolverKind::kChronGear: return "chrongear";
    case SolverKind::kPcsi: return "pcsi";
    case SolverKind::kPipelinedCg: return "pipecg";
  }
  return "?";
}

std::string to_string(PreconditionerKind k) {
  switch (k) {
    case PreconditionerKind::kIdentity: return "identity";
    case PreconditionerKind::kDiagonal: return "diagonal";
    case PreconditionerKind::kBlockEvp: return "block-evp";
  }
  return "?";
}

BarotropicSolver::BarotropicSolver(comm::Communicator& comm,
                                   const comm::HaloExchanger& halo,
                                   const grid::CurvilinearGrid& grid,
                                   const util::Field& depth,
                                   const grid::NinePointStencil& stencil,
                                   const grid::Decomposition& decomp,
                                   const SolverConfig& config)
    : config_(config),
      halo_(&halo),
      op_(stencil, decomp, comm.rank()) {
  // Resolve the comm-avoiding ghost-zone depth (DESIGN.md §13) to a
  // concrete k in [1, min(kMaxHaloDepth, widest-supported rim)] before
  // anything reads it. Only P-CSI has the reduction-free iteration body
  // the grouped schedule needs, and only the pointwise preconditioners
  // have an extended-domain apply — every other combination falls back
  // to depth 1, loudly when the user asked for more.
  {
    int& hd = config_.options.halo_depth;
    MINIPOP_REQUIRE(hd == kHaloDepthAuto ||
                        (hd >= 1 && hd <= kMaxHaloDepth),
                    "halo_depth=" << hd << " (want 1.." << kMaxHaloDepth
                                  << " or " << kHaloDepthAuto << "=auto)");
    if (config_.solver != SolverKind::kPcsi) {
      if (hd > 1)
        MINIPOP_WARN("halo_depth=" << hd << " ignored: solver '"
                                   << to_string(config_.solver)
                                   << "' has no comm-avoiding schedule");
      hd = 1;
    } else if (config_.preconditioner == PreconditionerKind::kBlockEvp) {
      if (hd != 1)
        MINIPOP_WARN(
            "halo_depth=" << hd
                          << " ignored: block-evp has no extended-domain "
                             "apply; running depth-1 exchanges");
      hd = 1;
    } else {
      if (hd == kHaloDepthAuto) {
        const long points = static_cast<long>(decomp.nx_global()) *
                            decomp.ny_global();
        // Land-aware: the model discounts sweep flops by the mask's
        // ocean fraction, which shifts the break-even toward deeper
        // ghost zones on land-heavy grids (redundant rim work is
        // discounted too; exchange latency is not).
        hd = perf::choose_halo_depth(
            perf::yellowstone_profile(), perf::Config::kPcsiDiag, points,
            decomp.nranks(), config_.options.check_frequency, kMaxHaloDepth,
            decomp.ocean_fraction());
        MINIPOP_INFO("halo_depth=auto resolved to " << hd);
      }
      const int widest = std::min(kMaxHaloDepth, decomp.max_halo_width());
      if (hd > widest) {
        MINIPOP_WARN("halo_depth=" << hd << " clamped to " << widest
                                   << " (narrowest active block bounds "
                                      "the ghost rim)");
        hd = widest;
      }
    }
  }
  // Pipelined CG amplifies any asymmetry of the preconditioner, and EVP
  // marching round-off IS such an asymmetry: require much more accurate
  // (hence more subdivided) tiles for that pairing.
  if (config_.solver == SolverKind::kPipelinedCg &&
      config_.preconditioner == PreconditionerKind::kBlockEvp) {
    config_.evp.tile_accuracy =
        std::min(config_.evp.tile_accuracy, 1e-8);
  }
  switch (config_.preconditioner) {
    case PreconditionerKind::kIdentity:
      precond_ = std::make_unique<IdentityPreconditioner>(op_);
      break;
    case PreconditionerKind::kDiagonal:
      precond_ = std::make_unique<DiagonalPreconditioner>(op_);
      break;
    case PreconditionerKind::kBlockEvp:
      precond_ = std::make_unique<evp::BlockEvpPreconditioner>(
          op_, grid, depth, config_.evp);
      break;
  }

  if (config_.solver == SolverKind::kPcsi)
    lanczos_ = estimate_eigenvalue_bounds(comm, halo, op_, *precond_,
                                          config_.lanczos);

  // The solver stack: the lockstep core for P-CSI and ChronGear, the
  // member-by-member adapter for PCG and pipelined CG; then the
  // resilience decorator.
  switch (config_.solver) {
    case SolverKind::kPcsi:
      stack_ = std::make_unique<BatchedPcsiSolver>(lanczos_->bounds,
                                                   config_.options);
      break;
    case SolverKind::kChronGear:
      stack_ = std::make_unique<BatchedChronGearSolver>(config_.options);
      break;
    case SolverKind::kPcg:
      stack_ = std::make_unique<SequentialBatchedSolver>(
          std::make_unique<PcgSolver>(config_.options));
      break;
    case SolverKind::kPipelinedCg:
      stack_ = std::make_unique<SequentialBatchedSolver>(
          std::make_unique<PipelinedCgSolver>(config_.options));
      break;
  }

  if (config_.resilient) {
    config_.recovery.lanczos = config_.lanczos;
    auto resilient = std::make_unique<BatchedResilientSolver>(
        std::move(stack_), config_.recovery);
    // Fallback chain toward ever-simpler methods, ending at the
    // configuration least likely to share the primary's failure mode:
    // PCG with a freshly built diagonal preconditioner.
    if (config_.solver == SolverKind::kPcsi ||
        config_.solver == SolverKind::kPipelinedCg)
      resilient->add_fallback(
          std::make_unique<BatchedChronGearSolver>(config_.options));
    if (config_.solver != SolverKind::kPcg)
      resilient->add_fallback(
          std::make_unique<SequentialBatchedSolver>(
              std::make_unique<PcgSolver>(config_.options)),
          /*use_diagonal_precond=*/true);
    resilient_ = resilient.get();
    stack_ = std::move(resilient);
  }
}

SolveStats BarotropicSolver::solve(comm::Communicator& comm,
                                   const comm::DistField& b,
                                   comm::DistField& x,
                                   comm::HaloFreshness x_fresh) {
  return solve_one(*stack_, comm, *halo_, op_, *precond_, b, x, x_fresh);
}

BatchSolveStats BarotropicSolver::solve_batch(
    comm::Communicator& comm, std::span<const comm::DistField* const> bs,
    std::span<comm::DistField* const> xs, comm::HaloFreshness x_fresh) {
  const int nb = static_cast<int>(bs.size());
  MINIPOP_REQUIRE(nb >= 1 && bs.size() == xs.size(),
                  "solve_batch: need matching non-empty b/x sets (got "
                      << bs.size() << " vs " << xs.size() << ")");

  const int halo_width = xs[0]->halo();
  comm::DistFieldBatch bb(op_.decomposition(), op_.rank(), nb, halo_width);
  comm::DistFieldBatch xb(op_.decomposition(), op_.rank(), nb, halo_width);
  for (int m = 0; m < nb; ++m) {
    MINIPOP_REQUIRE(bb.member_compatible(*bs[m]) &&
                        xb.member_compatible(*xs[m]),
                    "solve_batch: member " << m
                                           << " incompatible with batch");
    bb.load_member(m, *bs[m]);
    xb.load_member(m, *xs[m]);
  }

  BatchSolveStats out =
      stack_->solve(comm, *halo_, op_, *precond_, bb, xb, x_fresh);
  for (int m = 0; m < nb; ++m) xb.store_member(m, *xs[m]);
  return out;
}

std::string BarotropicSolver::description() const {
  std::string d = to_string(config_.solver);
  d += "+";
  d += to_string(config_.preconditioner);
  // config_.options.halo_depth holds the RESOLVED depth (auto and
  // unsupported requests were settled at construction).
  if (config_.options.halo_depth > 1)
    d += "+ca(k=" + std::to_string(config_.options.halo_depth) + ")";
  return d;
}

}  // namespace minipop::solver
