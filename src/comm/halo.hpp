// Halo (boundary) exchange for distributed fields — the
// "update_halo" step of Algorithms 1 and 2.
//
// Each block exchanges with its eight neighbors: four edge strips of
// width `halo` and four halo x halo corner patches. Neighbors owned by
// the same rank are copied directly; remote neighbors go through the
// communicator's buffered point-to-point. Missing neighbors (domain edge
// or land-eliminated blocks) zero-fill the halo, which is consistent
// because the stencil carries identically zero coefficients across
// coastlines.
//
// The exchange is split-phase: begin() packs the strips, posts all sends
// and receives, and performs the local copies/zero fills, returning a
// HaloHandle that owns the in-flight state; finish() waits for the
// receives and unpacks. Computation that does not read the halo (the
// interior of the 9-point sweep) can run between the two. The blocking
// exchange() is begin() + finish(). Each begin() draws a fresh tag epoch
// from the communicator, so up to Communicator::kTagEpochWindow
// exchanges can be outstanding at once without their messages colliding.
//
// There is ONE exchange engine, written against the FieldSet view: a
// scalar field is a width-1 set, an nb-member batch a width-nb set
// whose member-interleaved layout makes a region row ni * nb contiguous
// elements — so one message per (block, neighbor) carries ALL members,
// the same message count as a scalar exchange with nb x the payload.
// The engine is also generic over the element type: an fp32 set packs
// fp32 strips and moves HALF the wire bytes of an fp64 exchange through
// the identical byte-addressed point-to-point path — the same tags, the
// same message count, the same overlap structure. finish() counts one
// exchange round refreshing nb member planes
// (CostTracker::add_halo_exchange(nb)).
#pragma once

#include <span>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/comm/field_set.hpp"

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
/// Rectangular region in block-interior coordinates: [i0, i0+ni) x
/// [j0, j0+nj) (indices may be negative or >= block size for halo
/// regions).
struct HaloRegion {
  int i0, j0, ni, nj;
};
}  // namespace detail

/// One in-flight split-phase halo exchange of a FieldSet (scalar field
/// or batch). Owns the posted receive requests and their landing
/// buffers; finish() completes them in post order (matching the
/// blocking exchange) and unpacks into the set's halo. The backing
/// container and communicator must outlive the handle. finish() must be
/// called exactly once per begin(); the destructor finishes a
/// still-active handle as a safety net (swallowing errors, since it may
/// run while unwinding a poisoned team).
template <typename T>
class HaloHandleT {
 public:
  HaloHandleT() = default;
  HaloHandleT(HaloHandleT&&) noexcept = default;
  HaloHandleT& operator=(HaloHandleT&&) noexcept = default;
  HaloHandleT(const HaloHandleT&) = delete;
  HaloHandleT& operator=(const HaloHandleT&) = delete;
  ~HaloHandleT();

  bool active() const { return fs_.valid(); }

  /// Wait for all receives, unpack the halo, and count the exchange
  /// (one round refreshing nb member planes). No-op on an inactive
  /// handle.
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
    int lb = 0;
    detail::HaloRegion dst{};
    Request request;
  };

  Communicator* comm_ = nullptr;
  FieldSetT<T> fs_;
  std::vector<PendingRecv> recvs_;
  /// Copied from the exchanger at begin(): each pending buffer carries a
  /// one-element CRC32C trailer to verify before unpacking.
  bool crc_ = false;
};

extern template class HaloHandleT<double>;
extern template class HaloHandleT<float>;

using HaloHandle = HaloHandleT<double>;
using HaloHandle32 = HaloHandleT<float>;
/// The batch exchange rides the unified handle; kept as named aliases
/// for readability at batched call sites.
using BatchHaloHandle = HaloHandleT<double>;
using BatchHaloHandle32 = HaloHandleT<float>;

class HaloExchanger {
 public:
  explicit HaloExchanger(const grid::Decomposition& decomp);

  /// Update all halos of `fs` (owned by the calling rank). Collective:
  /// every rank of the communicator must call with its own set.
  /// Equivalent to begin_set() immediately followed by finish().
  template <typename T>
  void exchange_set(Communicator& comm, const FieldSetT<T>& fs) const;

  /// Split-phase over a FieldSet: pack and post all sends/receives, do
  /// the local copies and zero fills, and return the in-flight handle.
  /// The halo cells of the set are in an unspecified state until
  /// finish(); the owned interior may be read freely (but not written)
  /// in between. One message per (block, neighbor) carries all nb()
  /// members. The fault-injection halo payload hook arms only on
  /// width-1 fp64 sets — fault sites target a single solve; members of
  /// wider batches recover through per-member sub-batches (DESIGN.md
  /// §10, §11).
  template <typename T>
  HaloHandleT<T> begin_set(Communicator& comm,
                           const FieldSetT<T>& fs) const;

  /// Aggregated deep-halo exchange of several same-shape sets (the
  /// communication-avoiding solvers' once-per-group refresh of
  /// {x, dx, r}): ONE message per (block, neighbor) concatenates the
  /// per-set rims back to back, so a group of N sets costs the same
  /// message count — and one exchange round — as a single set. All sets
  /// must share decomposition, rank, halo width and batch width; each
  /// set's rims are bitwise identical to what its own exchange_set()
  /// would deliver. With CRC enabled, one trailer covers the whole
  /// concatenated payload; the fault payload hook arms on width-1 fp64
  /// groups exactly like the single-set path. Blocking.
  template <typename T>
  void exchange_group(Communicator& comm,
                      std::span<const FieldSetT<T>> sets) const;

  /// Convenience wrappers forwarding to the FieldSet engine.
  template <typename T>
  void exchange(Communicator& comm, DistFieldT<T>& field) const {
    exchange_set<T>(comm, FieldSetT<T>(field));
  }
  template <typename T>
  HaloHandleT<T> begin(Communicator& comm, DistFieldT<T>& field) const {
    return begin_set<T>(comm, FieldSetT<T>(field));
  }
  template <typename T>
  void exchange(Communicator& comm, DistFieldBatchT<T>& field) const {
    exchange_set<T>(comm, FieldSetT<T>(field));
  }
  template <typename T>
  HaloHandleT<T> begin(Communicator& comm,
                       DistFieldBatchT<T>& field) const {
    return begin_set<T>(comm, FieldSetT<T>(field));
  }

  /// Bytes this rank sends per exchange of `field` (for cost
  /// reporting). Scales with sizeof(T) and the batch width: an fp32
  /// field reports half the fp64 bytes; a batch reports nb x the
  /// scalar bytes, carried in the same messages.
  template <typename T>
  std::uint64_t bytes_sent_per_exchange(const DistFieldT<T>& field) const;
  template <typename T>
  std::uint64_t bytes_sent_per_exchange(
      const DistFieldBatchT<T>& field) const;

  /// Enable CRC32C protection of every remote halo message: the sender
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
  const grid::Decomposition* decomp_;
  bool crc_enabled_ = false;
};

#define MINIPOP_HALO_EXTERN(T)                                             \
  extern template void HaloExchanger::exchange_set<T>(                     \
      Communicator&, const FieldSetT<T>&) const;                           \
  extern template void HaloExchanger::exchange_group<T>(                   \
      Communicator&, std::span<const FieldSetT<T>>) const;                 \
  extern template HaloHandleT<T> HaloExchanger::begin_set<T>(              \
      Communicator&, const FieldSetT<T>&) const;                           \
  extern template std::uint64_t HaloExchanger::bytes_sent_per_exchange<T>( \
      const DistFieldT<T>&) const;                                         \
  extern template std::uint64_t HaloExchanger::bytes_sent_per_exchange<T>( \
      const DistFieldBatchT<T>&) const;
MINIPOP_HALO_EXTERN(double)
MINIPOP_HALO_EXTERN(float)
#undef MINIPOP_HALO_EXTERN

}  // namespace minipop::comm
