// Threaded virtual-MPI backend: a ThreadTeam runs N ranks as threads.
// Point-to-point messages travel through one inbox per destination rank;
// global reductions run through a two-slot ring.
//
// Semantics mirror the subset of MPI the solvers need:
//   * send() is buffered/eager (never blocks, complete on return) —
//     like MPI's eager protocol that §5 of the paper tunes via
//     MP_EAGER_LIMIT;
//   * recv() blocks until the message matching (src, tag) arrives;
//     messages of one (source, tag) are received in sending order;
//   * allreduce() joins a full-team rendezvous round whose combination
//     order is fixed (rank 0, 1, ..., p-1) regardless of arrival order,
//     so results are bitwise reproducible for a given rank count,
//     exactly like a fixed-topology MPI reduction tree. Rounds are
//     matched by call ordinal, so every rank must make its reductions in
//     the same order; a fast rank may enter round n+1 before a slow one
//     has read round n.
//
// Synchronisation. Each inbox has its own mutex and condition variable,
// and only the rank that owns it waits there, so a send wakes only its
// receiver. The reduction ring has one mutex and condition variable; the
// barrier and the resync fence use the team mutex. The team flags
// (poisoned, timed out) are atomics, read without a lock on entry to
// every operation; a flag is raised while holding every mutex whose
// waits read it — the team mutex, then each inbox by rank, then the
// ring, the one order every path that holds several of them follows —
// and each of their condition variables is then notified.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

/// Thrown in ranks blocked on a rendezvous when another rank of the team
/// failed: the collective can never complete, so waiting peers abort
/// instead of deadlocking. ThreadTeam::run() rethrows the *original*
/// failure, not this secondary one.
class TeamPoisonedError : public util::Error {
 public:
  using util::Error::Error;
};

class ThreadTeam;

/// Communicator handed to each rank function by ThreadTeam::run().
class ThreadComm final : public Communicator {
 public:
  int rank() const override { return rank_; }
  int size() const override;

  void allreduce(std::span<double> values, ReduceOp op) override;
  void send(int dest, int tag, std::span<const double> data) override;
  void recv(int src, int tag, std::span<double> data) override;
  void barrier() override;
  void resync() override;
  void declare_desync() override;

 private:
  friend class ThreadTeam;
  ThreadComm(ThreadTeam* team, int rank) : team_(team), rank_(rank) {}
  ThreadTeam* team_;
  int rank_;
};

/// Owns the shared state for one team of virtual ranks.
class ThreadTeam {
 public:
  explicit ThreadTeam(int nranks);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int nranks() const { return nranks_; }

  /// Bound blocking receives: a recv that finds no message within
  /// `total_ms` throws CommTimeoutError instead of waiting forever. The
  /// wait is split into `retries` attempts with exponentially growing
  /// slices (slice, 2*slice, 4*slice, ... summing to total_ms) — the
  /// retry/backoff ladder an MPI progress loop would use. Once one rank
  /// times out the whole team is flagged: every blocked or new
  /// operation on any rank throws CommTimeoutError until resync() runs
  /// collectively. total_ms <= 0 restores the default infinite wait.
  /// Call it only between runs: the receive waits read the budget
  /// without a lock.
  void set_recv_timeout(double total_ms, int retries = 4);

  /// Run fn(comm) on every rank concurrently; returns when all finish.
  /// If any rank throws, the first exception is rethrown here after all
  /// threads have been joined.
  void run(const std::function<void(Communicator&)>& fn);

  /// Cost counters of rank r recorded during the last run().
  const CostCounters& costs(int r) const;

  /// Sum of all ranks' counters.
  CostCounters total_costs() const;

 private:
  friend class ThreadComm;

  struct Message {
    int tag = 0;
    std::vector<double> data;
  };

  /// Receive side of one rank. Only the owner waits on `cv`. A received
  /// payload goes onto `spare`, and the next send to this rank refills
  /// it, so steady-state sends allocate nothing. Aligned to its own
  /// cache lines: ranks lock their inboxes concurrently.
  struct alignas(64) Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<Message>> from;  ///< FIFO per source rank
    std::vector<std::vector<double>> spare;

    /// Drop every queued message, keeping the payloads for reuse.
    void clear();
  };

  /// One reduction round in flight. Every rank deposits its part; the
  /// last arriver combines the parts in rank order 0..p-1. Vectors keep
  /// their capacity from round to round.
  struct ReduceSlot {
    ReduceOp op{};
    int arrived = 0;
    std::vector<std::vector<double>> parts;  ///< one per rank
    std::vector<double> result;
  };

  std::uint64_t post_allreduce(int rank, std::span<const double> values,
                               ReduceOp op);
  void reduce_block(std::uint64_t round, std::span<double> out);
  void reset_ring();

  void post_send(int src, int dest, int tag, std::span<const double> data);
  void deliver(int src, int dest, int tag, std::span<const double> data,
               int copies);
  void recv_block(int src, int dest, int tag, std::span<double> out);
  /// Take the first message with `tag` from src's FIFO (inbox lock
  /// held) and return its size, copying it into `out` when the sizes
  /// match; nullopt when there is none.
  std::optional<std::size_t> try_take_locked(Inbox& inbox, int src, int tag,
                                             std::span<double> out);

  void do_barrier();
  void do_resync();

  /// Set when any rank throws: blocked peers wake up and abort instead
  /// of deadlocking in a rendezvous that can never complete.
  std::atomic<bool> poisoned_{false};
  void poison() { raise_flag(poisoned_); }
  void throw_if_poisoned() const;
  /// Throws if the team is poisoned or timed out.
  void throw_if_failed() const;

  /// Set when any rank's receive timed out: the team's collective state
  /// is out of sync (ordinals, queued messages), so every rank aborts
  /// its current operation and must rendezvous in do_resync(). Unlike
  /// poisoning this is recoverable.
  std::atomic<bool> timed_out_{false};
  void throw_if_timed_out() const;
  /// Raise timed_out_ from a rank that detected corruption (not a
  /// timeout) and is about to throw: peers blocked in recv/reduce/
  /// barrier waits wake and abort with CommTimeoutError, then the whole
  /// team meets in do_resync() exactly as after a timeout.
  void declare_timeout() { raise_flag(timed_out_); }

  /// Set `flag` under every mutex whose waits read it, then wake every
  /// waiter. The caller holds none of the team's locks.
  void raise_flag(std::atomic<bool>& flag);
  /// Locks every inbox in rank order, then the ring.
  std::vector<std::unique_lock<std::mutex>> lock_inboxes_and_ring();

  double recv_timeout_ms_ = 0.0;  ///< <= 0: wait forever (default)
  int recv_retries_ = 4;

  int nranks_;
  std::vector<std::unique_ptr<ThreadComm>> comms_;

  std::vector<Inbox> inboxes_;  ///< indexed by destination rank

  // Reduction ring. Round n uses slot n mod 2: a rank joins round n+2
  // only after round n+1 completed, and every rank joined round n+1 only
  // after it had read round n, so round n's slot is free again by then.
  // Rounds are routed by per-rank call ordinal; the counters stay in
  // sync because every rank makes its collectives in the same order.
  std::mutex ring_mu_;
  std::condition_variable ring_cv_;
  std::array<ReduceSlot, 2> ring_;
  std::uint64_t rounds_done_ = 0;
  std::vector<std::uint64_t> reduce_posts_;

  // Team mutex: barrier, resync fence and fault-delayed deliveries.
  std::mutex mu_;
  std::condition_variable cv_;

  // Barrier state.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Resync rendezvous state. The generation also stamps fault-delayed
  // deliveries: a delayed message posted before a resync is dropped when
  // it finally matures, so it cannot collide with a reused tag epoch.
  int resync_arrived_ = 0;
  std::uint64_t resync_generation_ = 0;

  // Timer threads carrying fault-delayed deliveries; joined at the end
  // of run() so no delivery outlives its team run.
  std::vector<std::thread> delayed_threads_;
};

}  // namespace minipop::comm
