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
// An exchange is blocking. It sends one eager message per peer rank,
// performs the zero fills and local copies, then receives, verifies and
// unpacks one message per peer in ascending peer rank. Each exchange
// draws a fresh tag epoch from the communicator and tags its messages
// (epoch, source rank), so the messages of consecutive exchanges never
// match each other's receives.
//
// There is ONE exchange engine, over batches: a DistField is the
// width-1 batch, and an nb-member batch's member-interleaved layout makes
// a region row ni * nb contiguous elements — so the same messages carry
// ALL members, the same message count as a single field with nb x the
// payload. An exchange counts one round refreshing nb member planes per
// field (CostTracker::add_halo_exchange).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field_batch.hpp"

namespace minipop::comm {

/// Caller's statement about the halo state of an input field. Operators
/// exchange a kStale input's halo before sweeping; kFresh skips the
/// exchange because the caller just refreshed it (e.g. the model leaves
/// eta's halo fresh right before the elliptic solve) — passing kFresh
/// for a halo that is actually stale silently computes with old
/// boundary values, so only assert it where an exchange provably just
/// happened with no interior writes in between.
enum class HaloFreshness { kStale, kFresh };

namespace detail {
struct HaloPlan;  // one (rank, halo width)'s resolved exchange
}  // namespace detail

class HaloExchanger {
 public:
  explicit HaloExchanger(const grid::Decomposition& decomp);
  ~HaloExchanger();
  HaloExchanger(const HaloExchanger&) = delete;
  HaloExchanger& operator=(const HaloExchanger&) = delete;

  /// Update all halos of `field` (owned by the calling rank).
  /// Collective: every rank of the communicator must call with its own
  /// field. One message per peer rank carries all nb() members. The
  /// fault-injection halo payload hook arms only on width-1 fields (a
  /// single solve); members of wider batches recover through per-member
  /// sub-batches (DESIGN.md §10, §11).
  void exchange(Communicator& comm, DistFieldBatch& field) const {
    DistFieldBatch* const one[1] = {&field};
    exchange_group(comm, one);
  }

  /// Aggregated deep-halo exchange of several same-shape batches (depth-k
  /// P-CSI's once-per-group refresh of {x, dx}): ONE message per peer
  /// rank carries, strip by strip, every field's rim back to back, so a
  /// group of N fields costs the same message count — and one exchange
  /// round — as a single field. All
  /// fields must share decomposition, rank, halo width and batch width;
  /// each field's rims are bitwise identical to what its own exchange()
  /// would deliver. With CRC enabled, one trailer covers the whole
  /// concatenated payload; the fault payload hook arms on width-1
  /// groups exactly like the single-field path. The one engine behind
  /// exchange(). Blocking.
  void exchange_group(Communicator& comm,
                      std::span<DistFieldBatch* const> fields) const;

  /// Bytes this rank sends per exchange of `field` (for cost
  /// reporting), read off the plan: every peer message's strips plus,
  /// with CRC on, its one trailer element. Scales with the batch width:
  /// a batch reports nb x the payload of one field, carried in the same
  /// messages.
  std::uint64_t bytes_sent_per_exchange(const DistFieldBatch& field) const;

  /// Enable CRC32C protection of every peer halo message: the sender
  /// appends a one-element trailer carrying the CRC of the payload
  /// bytes, and the receiver verifies it before unpacking. A mismatch
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

}  // namespace minipop::comm
