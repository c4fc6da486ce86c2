// Virtual-MPI communicator abstraction.
//
// All solver and model code is written rank-locally against this
// interface, exactly as MPI code would be: each rank owns its blocks,
// exchanges halos point-to-point, and participates in fused global
// reductions. Two backends exist:
//   * SerialComm  — size 1, no communication (reference/big-grid path)
//   * ThreadComm  — N ranks as threads with one inbox per rank for
//                   point-to-point and deterministic, fixed-order global
//                   reductions
//
// The primitives are blocking, as the paper's cost model (§2.2) prices
// them: a send is eager (the data is copied before it returns), a
// receive and a reduction return once their data has arrived. Real-
// machine wall times are *not* modeled here (we are on a workstation);
// the CostTracker records message/reduction/flop counts — plus the time
// blocked waiting for peers — and src/perf converts counts to modeled
// times.
#pragma once

#include <span>

#include "src/comm/cost_tracker.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

enum class ReduceOp { kSum, kMax, kMin };

/// A communication wait exceeded its configured timeout (see
/// ThreadTeam::set_recv_timeout). Once one rank throws this, the whole
/// team's communication state is suspect: every subsequent blocking call
/// on any rank of the team also throws until Communicator::resync() has
/// been run collectively. Distinct from util::Error subclassing alone so
/// the recovery layer can catch timeouts specifically.
class CommTimeoutError : public util::Error {
 public:
  using util::Error::Error;
};

/// A received message is not the one its receive expects: a halo
/// message failed its CRC32C integrity check at unpack (the payload was
/// corrupted between pack and delivery: wire/NIC/memory), or the
/// message matched under the receive's tag has another size than the
/// receive (a stale duplicate met by a later exchange of another
/// width). The sends are eager-buffered, so the receiver cannot ask for
/// a retransmit of live data — the thrower first flags the team
/// desynchronized so the whole team funnels into resync(), then the
/// recovery layer restarts the solve from a checkpoint. Typed so it can
/// be told apart from a timeout (the data arrived — it arrived wrong).
class CorruptPayloadError : public util::Error {
 public:
  using util::Error::Error;
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Fused in-place reduction of a small vector across all ranks
  /// (MPI_Allreduce); on return `values` holds the reduced vector.
  /// Deterministic: combination order is rank 0..p-1 regardless of
  /// arrival order. Collective — every rank must make its reductions in
  /// the same order.
  virtual void allreduce(std::span<double> values, ReduceOp op) = 0;

  /// Buffered ("eager") point-to-point send: the backend copies `data`
  /// before returning, so the caller may reuse it at once and the send
  /// never waits for the receiver.
  virtual void send(int dest, int tag, std::span<const double> data) = 0;

  /// Receive the message matching (src, tag), blocking until it
  /// arrives; data.size() must equal the sent element count.
  virtual void recv(int src, int tag, std::span<double> data) = 0;

  virtual void barrier() = 0;

  /// Collective fence that clears any failed-communication state (queued
  /// messages, reduction ordinals, timeout flags) and returns with every
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
  /// order (exactly like collectives), which keeps the counters in sync
  /// without communication. The window bounds how many epochs may be in
  /// flight at once: a fast rank can start its next exchange while a
  /// slow peer is still receiving the current one.
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
