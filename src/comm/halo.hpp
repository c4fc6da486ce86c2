// Halo (boundary) exchange for distributed fields — the
// "update_halo" step of Algorithms 1 and 2.
//
// Each block exchanges with its eight neighbors: four edge strips of
// width `halo` and four halo x halo corner patches. Missing neighbors
// (domain edge or land-eliminated blocks) zero-fill the halo, which is
// consistent because the stencil carries identically zero coefficients
// across coastlines.
//
// The exchanger resolves the decomposition once per (rank, halo width)
// into a HaloPlan: the zero fills, a direct block-to-block row copy for
// every neighbor owned by the same rank, and for each peer rank one send
// list and one receive list of strips. Both ends order a list the same
// way — the receiver's (local block, direction) order, which each side
// derives from the global decomposition — so an exchange sends ONE
// message per (rank, peer rank) pair, carrying every block's strips for
// every field of the group, as POP's halo update packs one buffer per
// neighbouring process and the paper's cost model (§2.2) assumes. Batch
// width and group size only scale buffer sizes, so they stay out of the
// plan key.
//
// The exchange is split-phase: begin() packs and posts one send and one
// receive per peer rank and performs the local copies and zero fills,
// returning a HaloHandle that owns the in-flight state; finish() waits
// for the receives and unpacks. Computation that does not read the halo
// (the interior of the 9-point sweep) can run between the two. The
// blocking exchange() is begin() + finish(). Each begin() draws a fresh
// tag epoch from the communicator and tags its messages (epoch, source
// rank), so up to Communicator::kTagEpochWindow exchanges can be
// outstanding at once without their messages colliding.
//
// There is ONE exchange engine, over batches: a DistField is the
// width-1 batch, and an nb-member batch's member-interleaved layout makes
// a region row ni * nb contiguous elements — so the same messages carry
// ALL members, the same message count as a single field with nb x the
// payload. finish() counts one exchange round refreshing nb member
// planes (CostTracker::add_halo_exchange(nb)).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field_batch.hpp"

namespace minipop::comm {

class HaloExchanger;

/// Caller's statement about the halo state of an input field. Operators
/// exchange a kStale input's halo before sweeping; kFresh skips the
/// exchange because the caller just refreshed it (e.g. the model leaves
/// eta's halo fresh right before the elliptic solve) — passing kFresh
/// for a halo that is actually stale silently computes with old
/// boundary values, so only assert it where an exchange provably just
/// happened with no interior writes in between.
enum class HaloFreshness { kStale, kFresh };

namespace detail {
struct HaloPlan;      // one (rank, halo width)'s resolved exchange
struct HaloPeerPlan;  // the strips exchanged with one peer rank
}  // namespace detail

/// One in-flight split-phase halo exchange of one batch or a group of
/// same-shape batches (a DistField is the width-1 batch). Owns the
/// posted receive requests — one per peer rank — and their landing
/// buffers; finish() completes them in post order (matching the blocking
/// exchange) and unpacks into the halos. The batches, the communicator
/// and the exchanger (which owns the plan) must outlive the handle.
/// finish() must be called exactly once per begin(); the destructor
/// finishes a still-active handle as a safety net (swallowing errors,
/// since it may run while unwinding a poisoned team). A moved-from
/// handle is inactive.
template <typename T>
class HaloHandleT {
 public:
  HaloHandleT() = default;
  HaloHandleT(HaloHandleT&& o) noexcept
      : comm_(std::exchange(o.comm_, nullptr)),
        fields_(std::exchange(o.fields_, {})),
        recvs_(std::move(o.recvs_)),
        crc_(o.crc_) {}
  HaloHandleT& operator=(HaloHandleT&&) = delete;
  HaloHandleT(const HaloHandleT&) = delete;
  HaloHandleT& operator=(const HaloHandleT&) = delete;
  ~HaloHandleT();

  bool active() const { return !fields_.empty(); }

  /// Wait for all receives, unpack the halos, and count the exchange
  /// (one round refreshing nb member planes per field). No-op on an
  /// inactive handle.
  void finish();

 private:
  friend class HaloExchanger;

  struct PendingRecv {
    // `request` must be declared after `buf`: an abandoned Request's
    // destructor performs one non-blocking test, which can still deliver
    // a matured message into the landing span — so the request has to
    // die (reverse declaration order) while the buffer it targets is
    // alive. With the opposite order, unwinding a timed-out exchange
    // writes into freed memory.
    std::vector<T> buf;
    const detail::HaloPeerPlan* peer = nullptr;  ///< strips, wire order
    Request request;
  };

  Communicator* comm_ = nullptr;
  std::vector<DistFieldBatchT<T>*> fields_;  ///< caller order
  std::vector<PendingRecv> recvs_;
  /// Copied from the exchanger at begin(): each pending message carries
  /// a one-element CRC32C trailer to verify before unpacking.
  bool crc_ = false;
};

extern template class HaloHandleT<double>;

using HaloHandle = HaloHandleT<double>;

class HaloExchanger {
 public:
  explicit HaloExchanger(const grid::Decomposition& decomp);
  ~HaloExchanger();
  HaloExchanger(const HaloExchanger&) = delete;
  HaloExchanger& operator=(const HaloExchanger&) = delete;

  /// Update all halos of `field` (owned by the calling rank).
  /// Collective: every rank of the communicator must call with its own
  /// field. Equivalent to begin() immediately followed by finish().
  template <typename T>
  void exchange(Communicator& comm, DistFieldBatchT<T>& field) const {
    begin<T>(comm, field).finish();
  }

  /// Split-phase: pack and post all sends/receives, do the local copies
  /// and zero fills, and return the in-flight handle. The halo cells of
  /// the field are in an unspecified state until finish(); the owned
  /// interior may be read freely (but not written) in between. One
  /// message per peer rank carries all nb() members. The
  /// fault-injection halo payload hook arms only on width-1 fields —
  /// fault sites target a single solve; members of wider batches
  /// recover through per-member sub-batches (DESIGN.md §10, §11).
  template <typename T>
  HaloHandleT<T> begin(Communicator& comm, DistFieldBatchT<T>& field) const {
    DistFieldBatchT<T>* const one[1] = {&field};
    return begin_group<T>(comm, one);
  }

  /// Aggregated deep-halo exchange of several same-shape batches (the
  /// communication-avoiding solvers' once-per-group refresh of
  /// {x, dx, r}): ONE message per peer rank carries, strip by strip,
  /// every field's rim back to back, so a group of N fields costs the
  /// same message count — and one exchange round — as a single field. All
  /// fields must share decomposition, rank, halo width and batch width;
  /// each field's rims are bitwise identical to what its own exchange()
  /// would deliver. With CRC enabled, one trailer covers the whole
  /// concatenated payload; the fault payload hook arms on width-1
  /// groups exactly like the single-field path. Blocking.
  template <typename T>
  void exchange_group(Communicator& comm,
                      std::span<DistFieldBatchT<T>* const> fields) const {
    begin_group<T>(comm, fields).finish();
  }

  /// Bytes this rank sends per exchange of `field` (for cost
  /// reporting), read off the plan: every peer message's strips plus,
  /// with CRC on, its one trailer element. Scales with the batch width:
  /// a batch reports nb x the payload of one field, carried in the same
  /// messages.
  template <typename T>
  std::uint64_t bytes_sent_per_exchange(
      const DistFieldBatchT<T>& field) const;

  /// Enable CRC32C protection of every peer halo message: the sender
  /// appends a one-element trailer carrying the CRC of the payload
  /// bytes, and finish() verifies it before unpacking. A mismatch
  /// declares the team desynchronized and throws CorruptPayloadError
  /// (the sends are eager-buffered — there is nothing live to
  /// retransmit — so recovery restarts from a checkpoint after the
  /// collective resync). Local copies and zero fills are not checked:
  /// they never leave the rank's memory. Must be set identically on
  /// every rank BEFORE any exchange; wired from
  /// IntegrityOptions::halo_crc at model construction. OFF (default)
  /// is byte-identical to the pre-integrity wire format.
  void set_crc(bool on) { crc_enabled_ = on; }
  bool crc() const { return crc_enabled_; }

 private:
  /// The one engine behind begin() and exchange_group(): split-phase
  /// exchange of every field of the group, one message per peer rank
  /// for all of them.
  template <typename T>
  HaloHandleT<T> begin_group(Communicator& comm,
                             std::span<DistFieldBatchT<T>* const> fields) const;

  /// The plan of (rank, halo), built on first use. The ranks of a
  /// ThreadTeam may share one exchanger, so the lookup holds plans_mu_;
  /// it is never held across communication. A built plan never moves.
  const detail::HaloPlan& plan(int rank, int halo) const;

  const grid::Decomposition* decomp_;
  bool crc_enabled_ = false;
  int max_halo_;  ///< widest halo the decomposition admits
  mutable std::mutex plans_mu_;
  /// Slot rank * (max_halo_ + 1) + halo; null until built.
  mutable std::vector<std::unique_ptr<const detail::HaloPlan>> plans_;
};

#define MINIPOP_HALO_EXTERN(T)                                             \
  extern template HaloHandleT<T> HaloExchanger::begin_group<T>(            \
      Communicator&, std::span<DistFieldBatchT<T>* const>) const;          \
  extern template std::uint64_t HaloExchanger::bytes_sent_per_exchange<T>( \
      const DistFieldBatchT<T>&) const;
MINIPOP_HALO_EXTERN(double)
#undef MINIPOP_HALO_EXTERN

}  // namespace minipop::comm
