// Virtual-MPI communicator abstraction.
//
// All solver and model code is written rank-locally against this
// interface, exactly as MPI code would be: each rank owns its blocks,
// exchanges halos point-to-point, and participates in fused global
// reductions. Two backends exist:
//   * SerialComm  — size 1, no communication (reference/big-grid path)
//   * ThreadComm  — N ranks as threads with mailbox point-to-point and
//                   deterministic, fixed-order global reductions
//
// The primitives are split-phase (MPI_Isend/Irecv/Iallreduce style):
// posting returns a Request handle that is completed with test()/wait().
// The blocking calls are thin wrappers (post + wait). Real-machine wall
// times are *not* modeled here (we are on a workstation); the
// CostTracker records message/reduction/flop counts — plus the time
// blocked in wait() — and src/perf converts counts to modeled times.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "src/comm/cost_tracker.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

enum class ReduceOp { kSum, kMax, kMin };

/// A communication wait exceeded its configured timeout (see
/// ThreadComm::set_recv_timeout). Once one rank throws this, the whole
/// team's communication state is suspect: every subsequent blocking call
/// on any rank of the team also throws until Communicator::resync() has
/// been run collectively. Distinct from util::Error subclassing alone so
/// the recovery layer can catch timeouts specifically.
class CommTimeoutError : public util::Error {
 public:
  using util::Error::Error;
};

/// A halo message failed its CRC32C integrity check at unpack. The
/// payload was corrupted between pack and delivery (wire/NIC/memory);
/// the sends are eager-buffered, so the receiver cannot ask for a
/// retransmit of live data — the thrower first calls declare_desync()
/// so the whole team funnels into resync(), then the recovery layer
/// restarts the solve from a checkpoint. Typed so it can be told apart
/// from a timeout (the data arrived — it arrived wrong).
class CorruptPayloadError : public util::Error {
 public:
  using util::Error::Error;
};

/// Backend-side completion state of one in-flight split-phase operation.
/// poll() attempts completion without blocking and returns true once the
/// operation has finished with its results (if any) delivered to the
/// caller's buffers; block() waits for that to happen. After either has
/// reported completion the state is dead and must not be used again.
class RequestState {
 public:
  virtual ~RequestState() = default;
  virtual bool poll() = 0;
  virtual void block() = 0;
};

/// Lightweight handle to one in-flight split-phase operation (the
/// MPI_Request analogue). Movable, not copyable. Completing through
/// wait() records the time blocked inside it as exposed communication
/// in the owning communicator's CostTracker.
///
/// A Request destroyed before completion is *abandoned*: the destructor
/// makes one non-blocking completion attempt and then drops the state.
/// Abandonment never blocks (so error-path unwinding cannot deadlock on
/// a peer that died); an abandoned irecv simply leaves any late-arriving
/// message queued, and an abandoned iallreduce keeps the contribution it
/// already made so peers still complete. Deliberate code should always
/// complete its requests.
class Request {
 public:
  Request() = default;  ///< already-complete (used by eager/serial ops)
  Request(std::unique_ptr<RequestState> state, CostTracker* costs);
  Request(Request&&) noexcept = default;
  Request& operator=(Request&& o) noexcept;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request();

  bool done() const { return state_ == nullptr; }

  /// Nonblocking completion attempt; true once complete (idempotent).
  bool test();

  /// Block until complete. No-op if already complete.
  void wait();

 private:
  void record_completion(double exposed_seconds);

  std::unique_ptr<RequestState> state_;
  CostTracker* costs_ = nullptr;
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Post a fused in-place reduction of a small vector across all ranks
  /// (MPI_Iallreduce). `values` must stay alive until the returned
  /// request completes; on completion it holds the reduced vector.
  /// Deterministic: combination order is rank 0..p-1 regardless of
  /// arrival order. Collective — every rank must post its reductions in
  /// the same order.
  virtual Request iallreduce(std::span<double> values, ReduceOp op) = 0;

  /// Post a buffered ("eager") point-to-point send of raw bytes. The
  /// backends copy `data` at post time, so the returned request is
  /// always already complete and `data` may be reused immediately.
  /// Point-to-point is byte-addressed (MPI_BYTE style); the typed
  /// wrappers below view element spans as bytes.
  virtual Request isend_bytes(int dest, int tag,
                              std::span<const std::byte> data) = 0;

  /// Post a receive matching (src, tag); data.size() must equal the
  /// sent byte count. `data` must stay alive until the request
  /// completes.
  virtual Request irecv_bytes(int src, int tag,
                              std::span<std::byte> data) = 0;

  /// Typed element wrappers over the byte primitives (the historical
  /// API; kept non-virtual so backends implement bytes only).
  Request isend(int dest, int tag, std::span<const double> data) {
    return isend_bytes(dest, tag, std::as_bytes(data));
  }
  Request irecv(int src, int tag, std::span<double> data) {
    return irecv_bytes(src, tag, std::as_writable_bytes(data));
  }

  virtual void barrier() = 0;

  /// Collective fence that clears any failed-communication state (pending
  /// mailboxes, reduction ordinals, timeout flags) and returns with every
  /// rank at a common point, ready for fresh collectives. A no-op on
  /// healthy backends with nothing outstanding; after a CommTimeoutError
  /// it is the only way to make the team usable again. Every rank must
  /// call it (ranks that did not observe the timeout themselves are
  /// pushed into it by their next blocking call throwing).
  virtual void resync() {}

  /// Mark the team's communication state failed WITHOUT blocking, so
  /// peers currently waiting on this rank's messages or reductions wake
  /// with a CommTimeoutError and funnel into the collective resync()
  /// fence. Called by a rank that detected corruption locally (e.g. a
  /// halo CRC mismatch) and is about to throw: without the declaration
  /// its peers would block forever on data the thrower will never send.
  /// No-op on backends with no peers.
  virtual void declare_desync() {}

  // Blocking wrappers: post + wait.
  void allreduce(std::span<double> values, ReduceOp op);
  void send(int dest, int tag, std::span<const double> data);
  void recv(int src, int tag, std::span<double> data);

  CostTracker& costs() { return costs_; }
  const CostTracker& costs() const { return costs_; }

  /// Convenience: fused sum-reduce of one/two scalars.
  double allreduce_sum(double v);
  void allreduce_sum2(double* a, double* b);

  /// Tag epochs: disjoint tag sub-spaces for consecutive exchanges, so
  /// a fast rank's next exchange cannot match a slow peer's receives of
  /// the current one. Each call returns the next epoch in a cycling
  /// window of kTagEpochWindow epochs; callers build tags as
  /// `epoch * kTagEpochStride + local_tag` with local_tag <
  /// kTagEpochStride. Every rank must call this in the same collective
  /// order (exactly like posting collectives), which keeps the counters
  /// in sync without communication. The window bounds how many epochs
  /// may be in flight at once; reusing an epoch whose messages are still
  /// outstanding is caught by the ThreadComm tag audit under
  /// MINIPOP_BOUNDS_CHECK.
  static constexpr int kTagEpochWindow = 4;
  static constexpr int kTagEpochStride = 1 << 27;
  int next_tag_epoch() {
    const int e = tag_epoch_;
    tag_epoch_ = (tag_epoch_ + 1) % kTagEpochWindow;
    return e;
  }

 protected:
  /// Rewind the epoch counter to its initial value. The counters stay
  /// aligned only because every rank draws epochs in the same collective
  /// order; a timed-out exchange aborts ranks after *different* numbers
  /// of draws, desynchronizing them permanently. resync()
  /// implementations must call this after the fence (once all stale
  /// messages are gone) so post-recovery exchanges match tags again.
  void reset_tag_epoch() { tag_epoch_ = 0; }

  CostTracker costs_;

 private:
  int tag_epoch_ = 0;
};

}  // namespace minipop::comm
